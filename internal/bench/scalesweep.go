package bench

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
	"repro/internal/spec"
)

// The scale sweep is the scale-out dimension of cmd/perf -sweep: how
// fast (in host time) the simulator executes collectives as the rank
// count grows toward the million-rank regime — 64x64 up to 16384x64 =
// 1,048,576 ranks, far beyond the paper's testbed. Payloads are
// size-only (no data movement), so the measurement isolates the
// control plane: rank dispatch, matcher traffic, coordinator fusion
// and geometry setup.
//
// The sweep is a list of spec.Queries — allgather and allreduce at
// 8 B, iters 2, default fold "auto", per rung of the 64-ppn ladder —
// each refereed across the execution backends. The goroutine engine
// runs every shape up to 65,536 ranks; the event engine additionally
// runs the million-rank shape, folded whenever the coll fold helpers
// approve the workload (FoldUnit > 0 in the report). When both engines
// run a point the referee requires bit-identical virtual makespans —
// the folded event run must reproduce the unfolded goroutine timeline
// exactly, or the sweep fails.

// ScalePoint is one (shape, collective, engine) measurement.
type ScalePoint struct {
	Coll      string  `json:"coll"`
	Engine    string  `json:"engine"`    // execution backend of this point
	FoldUnit  int     `json:"fold_unit"` // rank-symmetry fold unit (0 = unfolded)
	Nodes     int     `json:"nodes"`
	PPN       int     `json:"ppn"`
	Ranks     int     `json:"ranks"`
	Bytes     int     `json:"bytes"` // payload bytes per rank
	Iters     int     `json:"iters"`
	NsPerOp   float64 `json:"ns_per_op"`  // spec.Run wall time (setup + iters ops), divided by iters
	VirtualUs float64 `json:"virtual_us"` // per-op virtual makespan (determinism anchor)
	VirtualPs int64   `json:"virtual_ps"` // exact total makespan (cross-engine equality)
}

// ScaleSweepReport is the scale section of a BENCH_*.json document.
type ScaleSweepReport struct {
	Model    string       `json:"model"`
	MaxRanks int          `json:"max_ranks"`
	Points   []ScalePoint `json:"points"`
}

// scaleShapes is the node-count ladder of the sweep at 64 ranks per
// node: 4096, 8192, 16384, 65536 and 1,048,576 ranks, capped by
// maxRanks (the CI smoke job stops at the 8192 point; the million-rank
// shape is event-engine-only).
func scaleShapes(maxRanks int) [][2]int {
	all := [][2]int{{64, 64}, {128, 64}, {256, 64}, {1024, 64}, {16384, 64}}
	var out [][2]int
	for _, s := range all {
		if s[0]*s[1] <= maxRanks {
			out = append(out, s)
		}
	}
	return out
}

// goroutineEngineMaxRanks is the largest shape the goroutine backend
// runs in the sweep. Beyond it (the million-rank shape) a
// goroutine-per-rank world is no longer a sensible measurement — that
// regime is exactly what the event engine plus folding exists for.
const goroutineEngineMaxRanks = 65536

// RunScaleSweep measures the scale dimension on the given machine
// profile up to maxRanks ranks, on each of the given execution
// backends (both engines when engines is empty).
func RunScaleSweep(machine string, maxRanks int, engines []sim.Engine) (*ScaleSweepReport, error) {
	if len(engines) == 0 {
		engines = []sim.Engine{sim.EngineGoroutine, sim.EngineEvent}
	}
	rep := &ScaleSweepReport{Model: machine, MaxRanks: maxRanks}
	for _, shape := range scaleShapes(maxRanks) {
		var paths []Path
		for _, eng := range engines {
			if eng != sim.EngineGoroutine || shape[0]*shape[1] <= goroutineEngineMaxRanks {
				paths = append(paths, Path{Name: eng.String(), Engine: eng.String()})
			}
		}
		if len(paths) == 0 {
			continue
		}
		for _, collName := range []string{"allgather", "allreduce"} {
			v, err := Referee(&spec.Query{
				Machine:    machine,
				Topology:   spec.Topology{Nodes: shape[0], PPN: shape[1]},
				Collective: collName,
				Sizes:      []int{8},
				Iters:      2,
			}, paths...)
			if err == nil {
				var pts []ScalePoint
				pts, err = scalePoints(v, shape[0], shape[1])
				rep.Points = append(rep.Points, pts...)
			}
			if err != nil {
				return nil, fmt.Errorf("bench: scale sweep %s %dx%d: %w", collName, shape[0], shape[1], err)
			}
			runtime.GC() // release the point's worlds before the next one
		}
	}
	return rep, nil
}

// scalePoints turns a refereed single-size scale query into one point
// per path, or into the referee's error when the paths disagree.
func scalePoints(v *Verdict, nodes, ppn int) ([]ScalePoint, error) {
	if err := v.Err(); err != nil {
		return nil, err
	}
	pts := make([]ScalePoint, len(v.Runs))
	for i, r := range v.Runs {
		res, p := r.Result, r.Result.Points[0]
		pts[i] = ScalePoint{
			Coll: res.Collective, Engine: res.Engine, FoldUnit: p.FoldUnit,
			Nodes: nodes, PPN: ppn, Ranks: res.Ranks, Bytes: p.Bytes, Iters: res.Iters,
			NsPerOp:   float64(r.Wall.Nanoseconds()) / float64(res.Iters),
			VirtualUs: p.VirtualUsPerOp,
			VirtualPs: p.VirtualPs,
		}
	}
	return pts, nil
}
