package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bpmf"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

// This file measures *real* (wall-clock) execution speed of the
// simulator itself, as opposed to the virtual latencies everywhere else
// in the package. The virtual results are deterministic by design; how
// many nanoseconds and allocations the host burns to produce them is
// not, and is exactly what data-plane optimizations change. The
// harness reports ns/op, allocs/op, bytes/op and the peak goroutine
// count per figure-scale workload, so that BENCH_*.json files at the
// repo root can hold successive PRs accountable for the wall-clock
// trajectory.

// WallCase is one wall-clock workload: a figure-scale run measured in
// host time. Run executes one operation and returns the virtual
// makespan so the harness can cross-check determinism between builds.
type WallCase struct {
	Name string
	Run  func() (sim.Time, error)
}

// WallResult is the measurement of one WallCase.
type WallResult struct {
	Name           string  `json:"name"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	PeakGoroutines int     `json:"peak_goroutines"`
	Iters          int     `json:"iters"`
	VirtualUs      float64 `json:"virtual_us"`
}

// WallReport is the JSON document written to BENCH_*.json.
type WallReport struct {
	GoVersion string       `json:"go_version"`
	Results   []WallResult `json:"results"`
	// Baseline carries the pre-refactor numbers the current results
	// are compared against (same schema), when a comparison was made.
	Baseline []WallResult       `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup_ns_per_op,omitempty"`
	// CollSweep records the selection engine's algorithm choices and
	// crossover points (cmd/perf -sweep).
	CollSweep *CollSweepReport `json:"coll_sweep,omitempty"`
	// TopoSweep records the multi-level topology dimension: composed
	// and hybrid allgather virtual times plus priced compositions per
	// level stack and ppn (cmd/perf -sweep).
	TopoSweep *TopoSweepReport `json:"topo_sweep,omitempty"`
	// ScaleSweep records the scale-out dimension: wall ns/op and
	// exact virtual makespans of size-only collectives up to
	// 1,048,576 ranks, per engine (cmd/perf -sweep scale).
	ScaleSweep *ScaleSweepReport `json:"scale_sweep,omitempty"`
	// StencilSweep records the process-topology dimension: 4-dim
	// grid halo exchanges per halo width up to 65,536 ranks
	// (cmd/perf -sweep stencil).
	StencilSweep *StencilSweepReport `json:"stencil_sweep,omitempty"`
	// NoiseSweep records the robustness dimension: virtual-time
	// slowdown per deterministic noise level, cross-checked for exact
	// agreement across engines and world-reuse paths
	// (cmd/perf -sweep noise).
	NoiseSweep *NoiseSweepReport `json:"noise_sweep,omitempty"`
	// TunedSweep records the measured-selection dimension: the
	// congested allreduce ladder under the table, cost and measured
	// tuning policies, with the tuning store's persistence round trip
	// and the warm-path determinism verdict (cmd/perf -sweep tuned).
	TunedSweep *TunedSweepReport `json:"tuned_sweep,omitempty"`
}

// WallCases returns the standard wall-clock workload set: the paper's
// Fig. 7 (one full node), Fig. 9 (64 nodes x 24 ranks — 1536 rank
// goroutines), and Fig. 11 (SUMMA) scale points, plus a small-message
// ping-pong that isolates the p2p matcher fast path.
func WallCases() []WallCase {
	cray := sim.HazelHenCray()
	return []WallCase{
		{
			Name: "p2p/pingpong_2x1_8B",
			Run: func() (sim.Time, error) {
				return PingPong(cray, false, 8, 64)
			},
		},
		{
			Name: "fig7/allgather_1x24_e512",
			Run: func() (sim.Time, error) {
				hy, err := HyAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{})
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, []int{CoresPerNode}, 8*512, MicroOpts{})
				if err != nil {
					return 0, err
				}
				return hy + pure, nil
			},
		},
		{
			Name: "fig9/allgather_64x24_e512",
			Run: func() (sim.Time, error) {
				shape := make([]int, 64)
				for i := range shape {
					shape[i] = 24
				}
				hy, err := HyAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2})
				if err != nil {
					return 0, err
				}
				pure, err := PureAllgatherLatency(cray, shape, 8*512, MicroOpts{Iters: 2})
				if err != nil {
					return 0, err
				}
				return hy + pure, nil
			},
		},
		{
			Name: "stencil/halo4d_256_e64",
			Run: func() (sim.Time, error) {
				// A 4-dim periodic 4^4 grid (256 ranks, 16 nodes),
				// reordered onto node bricks, exchanging 64-double
				// halos — the figure-scale anchor of the stencil path.
				topo, err := sim.Uniform(16, 16)
				if err != nil {
					return 0, err
				}
				w, err := mpi.NewWorld(cray, topo)
				if err != nil {
					return 0, err
				}
				defer w.Close()
				dims := []int{4, 4, 4, 4}
				periods := []bool{true, true, true, true}
				err = w.Run(func(p *mpi.Proc) error {
					cart, err := p.CommWorld().CartCreate(dims, periods, true)
					if err != nil {
						return err
					}
					in, _, _ := cart.Neighborhood()
					send := mpi.Sized(512 * len(in))
					recv := mpi.Sized(512 * len(in))
					for i := 0; i < 2; i++ {
						if err := coll.NeighborAlltoall(cart, send, recv, 512); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				return w.MaxClock(), nil
			},
		},
		{
			Name: "fig11/summa_c64_b64",
			Run: func() (sim.Time, error) {
				var total sim.Time
				for _, hy := range []bool{false, true} {
					topo, err := sim.NewTopology(ShapeFor(64))
					if err != nil {
						return 0, err
					}
					w, err := mpi.NewWorld(cray, topo)
					if err != nil {
						return 0, err
					}
					res, err := summa.Run(w, summa.Config{GridDim: 8, BlockDim: 64, Hybrid: hy})
					w.Close()
					if err != nil {
						return 0, err
					}
					total += res.Makespan
				}
				return total, nil
			},
		},
		{
			Name: "fig12/bpmf_c120",
			Run: func() (sim.Time, error) {
				topo, err := sim.NewTopology(ShapeFor(120))
				if err != nil {
					return 0, err
				}
				w, err := mpi.NewWorld(cray, topo)
				if err != nil {
					return 0, err
				}
				cfg := Fig12Config()
				cfg.Iters = 4
				res, err := bpmf.Run(w, cfg)
				w.Close()
				if err != nil {
					return 0, err
				}
				return res.Makespan, nil
			},
		},
	}
}

// MeasureWall benchmarks one case with the standard library's
// benchmark loop (so iteration counts self-tune) while sampling the
// process goroutine count in the background.
func MeasureWall(c WallCase) (WallResult, error) {
	var virtual sim.Time
	var runErr error
	sampler := newGoroutineSampler()

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, err := c.Run()
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			virtual = v
		}
	})
	sampler.stop()
	if runErr != nil {
		return WallResult{}, fmt.Errorf("bench: %s: %w", c.Name, runErr)
	}
	return WallResult{
		Name:           c.Name,
		NsPerOp:        float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp:    float64(res.AllocsPerOp()),
		BytesPerOp:     float64(res.AllocedBytesPerOp()),
		PeakGoroutines: sampler.peak(),
		Iters:          res.N,
		VirtualUs:      virtual.Us(),
	}, nil
}

// RunWallCases measures the standard cases (all of them when filter is
// nil, otherwise those whose name the filter accepts) and assembles the
// report.
func RunWallCases(filter func(name string) bool) (*WallReport, error) {
	rep := &WallReport{GoVersion: runtime.Version()}
	for _, c := range WallCases() {
		if filter != nil && !filter(c.Name) {
			continue
		}
		r, err := MeasureWall(c)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// CompareTo embeds the baseline's results and computes per-case ns/op
// speedups against it (baseline ns / current ns, so > 1 means the
// current build is faster).
func (rep *WallReport) CompareTo(baseline *WallReport) {
	rep.Baseline = baseline.Results
	rep.Speedup = map[string]float64{}
	byName := map[string]WallResult{}
	for _, r := range baseline.Results {
		byName[r.Name] = r
	}
	for _, r := range rep.Results {
		if b, ok := byName[r.Name]; ok && r.NsPerOp > 0 {
			rep.Speedup[r.Name] = b.NsPerOp / r.NsPerOp
		}
	}
}

// CheckAgainst is the perf-regression gate: it compares the current
// results to a committed baseline and returns one violation string per
// breach. Wall-clock time gets a generous multiplier (CI machines are
// noisy and heterogeneous); allocations are deterministic per
// operation, so they get a strict ceiling — allocSlack covers only
// benchmark-loop warmup effects. Cases missing on either side are
// skipped: the gate guards what both builds measure.
func (rep *WallReport) CheckAgainst(baseline *WallReport, maxSlowdown, allocSlack float64) []string {
	byName := map[string]WallResult{}
	for _, b := range baseline.Results {
		byName[b.Name] = b
	}
	var violations []string
	for _, r := range rep.Results {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*maxSlowdown {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds %.1fx baseline %.0f ns/op",
				r.Name, r.NsPerOp, maxSlowdown, b.NsPerOp))
		}
		if ceiling := b.AllocsPerOp*allocSlack + 16; r.AllocsPerOp > ceiling {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds ceiling %.0f (baseline %.0f)",
				r.Name, r.AllocsPerOp, ceiling, b.AllocsPerOp))
		}
	}
	// The virtual-time dimensions: once a baseline carries a sweep,
	// every checked build must produce one, and its pinned virtual
	// times must match exactly — all of them for topo, the
	// intersection for the -scalemax-capped stencil ladder, and for
	// the seeded noise and tuned sweeps only under the same seed,
	// which additionally must keep their own verdicts.
	dims := []pinnedDim{
		{name: "topo", base: baseline.TopoSweep.pins(), cur: rep.TopoSweep.pins(), exhaustive: true, comparable: true},
		{name: "stencil", base: baseline.StencilSweep.pins(), cur: rep.StencilSweep.pins(), comparable: true},
		{name: "noise", base: baseline.NoiseSweep.pins(), cur: rep.NoiseSweep.pins()},
		{name: "tuned", base: baseline.TunedSweep.pins(), cur: rep.TunedSweep.pins()},
	}
	if n, b := rep.NoiseSweep, baseline.NoiseSweep; n != nil && b != nil {
		dims[2].comparable = n.Seed == b.Seed
		if !n.BitIdentical {
			dims[2].verdicts = append(dims[2].verdicts, "noise sweep lost bit-identity across engines/world-reuse paths")
		}
	}
	if tu, b := rep.TunedSweep, baseline.TunedSweep; tu != nil && b != nil {
		dims[3].comparable = tu.Seed == b.Seed
		if !tu.BitIdentical {
			dims[3].verdicts = append(dims[3].verdicts, "tuned sweep lost bit-identity across engines/world-reuse paths/reruns")
		}
		if tu.BeatsCost < 2 {
			dims[3].verdicts = append(dims[3].verdicts, fmt.Sprintf(
				"measured policy beats the cost policy on %d points, want >= 2", tu.BeatsCost))
		}
	}
	for _, d := range dims {
		violations = append(violations, d.violations()...)
	}
	return violations
}

// pin is one gated point of a virtual-time dimension: a stable key and
// its exact virtual value, rendered losslessly.
type pin struct{ key, value string }

// pinnedDim is one virtual-time dimension of the gate: the baseline's
// pins, the current build's, and how strictly they must match.
type pinnedDim struct {
	name      string
	base, cur []pin // nil base: the baseline does not gate this dimension
	// exhaustive requires every baseline pin to be present; otherwise
	// only the intersection is compared, and it must not be empty.
	exhaustive bool
	// comparable is false when the builds ran under different seeds.
	comparable bool
	// verdicts are the current sweep's own failed invariants.
	verdicts []string
}

// violations is the gate's one comparison over (key, exact value) pins.
func (d pinnedDim) violations() []string {
	if d.base == nil {
		return nil
	}
	if len(d.cur) == 0 {
		return []string{fmt.Sprintf("%s sweep missing (baseline has one; run with -sweep %s)", d.name, d.name)}
	}
	out := d.verdicts
	cur := make(map[string]string, len(d.cur))
	for _, p := range d.cur {
		cur[p.key] = p.value
	}
	common := 0
	for _, b := range d.base {
		v, ok := cur[b.key]
		if !ok {
			if d.exhaustive {
				out = append(out, fmt.Sprintf("%s %s: baseline point missing from the current sweep", d.name, b.key))
			}
			continue
		}
		common++
		if d.comparable && v != b.value {
			out = append(out, fmt.Sprintf("%s %s: virtual time moved (%s -> %s)", d.name, b.key, b.value, v))
		}
	}
	if common == 0 && !d.exhaustive {
		out = append(out, fmt.Sprintf("%s sweep shares no points with the baseline (ladder shape drifted)", d.name))
	}
	return out
}

// pinsOf renders a sweep's points as pins: never nil, so a present
// sweep with no points still gates.
func pinsOf[P any](points []P, pinOf func(P) pin) []pin {
	out := make([]pin, len(points))
	for i, p := range points {
		out[i] = pinOf(p)
	}
	return out
}

// The pins methods below project a sweep onto its gated points; a nil
// sweep has none.

func (s *TopoSweepReport) pins() []pin {
	if s == nil {
		return nil
	}
	return pinsOf(s.Points, func(p TopoPoint) pin {
		return pin{fmt.Sprintf("%s/%dx%d/%dB", p.Stack, p.Nodes, p.PPN, p.Bytes),
			fmt.Sprintf("hier %v us, hybrid %v us", p.HierUs, p.HybridUs)}
	})
}

func (s *StencilSweepReport) pins() []pin {
	if s == nil {
		return nil
	}
	return pinsOf(s.Points, func(p StencilPoint) pin {
		return pin{fmt.Sprintf("%s/%dB", p.Dims, p.HaloBytes), fmt.Sprintf("%v us", p.VirtualUs)}
	})
}

func (s *NoiseSweepReport) pins() []pin {
	if s == nil {
		return nil
	}
	return pinsOf(s.Points, func(p NoisePoint) pin {
		return pin{fmt.Sprintf("%s/%dB", p.Label, p.Bytes), fmt.Sprintf("%d ps", p.VirtualPs)}
	})
}

func (s *TunedSweepReport) pins() []pin {
	if s == nil {
		return nil
	}
	return pinsOf(s.Points, func(p TunedPoint) pin {
		return pin{fmt.Sprintf("%dB", p.Bytes), fmt.Sprintf("measured %d ps, cost %d ps", p.MeasuredPs, p.CostPs)}
	})
}

// LoadWallReport reads a previously written report.
func LoadWallReport(path string) (*WallReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep WallReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &rep, nil
}

// WriteWallReport writes the report as indented JSON.
func (rep *WallReport) WriteWallReport(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
