package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The stencil sweep is the process-topology dimension of cmd/perf
// -sweep: a 4-dimensional periodic grid of ranks (mpi.CartCreate with
// reorder, so each node owns a compact brick) exchanging halos with
// coll.NeighborAlltoall at 4k to 65,536 ranks. Payloads are size-only,
// so the measurement isolates what the topology subsystem adds to the
// control plane: grid construction, the reorder permutation, and the
// 8-neighbor exchange per rank per step. Each point records wall
// ns/op per halo width plus the deterministic virtual makespan, which
// the -check gate pins exactly.

// StencilPoint is one (grid shape, halo width) measurement.
type StencilPoint struct {
	Dims           string  `json:"dims"` // e.g. "16x16x16x16"
	Nodes          int     `json:"nodes"`
	PPN            int     `json:"ppn"`
	Ranks          int     `json:"ranks"`
	HaloBytes      int     `json:"halo_bytes"` // per-neighbor block
	Iters          int     `json:"iters"`
	NsPerOp        float64 `json:"ns_per_op"`       // exchange wall time / iters
	SetupNs        float64 `json:"setup_ns"`        // world + grid construction (per shape)
	VirtualUs      float64 `json:"virtual_us"`      // per-op virtual makespan (determinism anchor)
	PeakGoroutines int     `json:"peak_goroutines"` // sampled during the point
}

// StencilSweepReport is the stencil section of a BENCH_*.json document.
type StencilSweepReport struct {
	Model    string         `json:"model"`
	MaxRanks int            `json:"max_ranks"`
	Points   []StencilPoint `json:"points"`
}

// stencilShape is one rung of the grid ladder at 64 ranks per node.
type stencilShape struct {
	dims  []int
	nodes int
}

// stencilShapes is the 4-dim grid ladder: 4096, 8192, 16384 and
// 65,536 ranks, capped by maxRanks (the CI smoke jobs stop early).
func stencilShapes(maxRanks int) []stencilShape {
	all := []stencilShape{
		{dims: []int{8, 8, 8, 8}, nodes: 64},
		{dims: []int{16, 8, 8, 8}, nodes: 128},
		{dims: []int{16, 16, 8, 8}, nodes: 256},
		{dims: []int{16, 16, 16, 16}, nodes: 1024},
	}
	var out []stencilShape
	for _, s := range all {
		if s.nodes*stencilPPN <= maxRanks {
			out = append(out, s)
		}
	}
	return out
}

const stencilPPN = 64

// stencilHaloBytes is the per-neighbor halo ladder: 1, 8 and 64
// doubles of ghost cells per face.
var stencilHaloBytes = []int{8, 64, 512}

// RunStencilSweep measures the stencil dimension up to maxRanks ranks.
func RunStencilSweep(model *sim.CostModel, maxRanks int) (*StencilSweepReport, error) {
	rep := &StencilSweepReport{Model: model.Name, MaxRanks: maxRanks}
	for _, shape := range stencilShapes(maxRanks) {
		pts, err := runStencilShape(model, shape)
		if err != nil {
			return nil, fmt.Errorf("bench: stencil sweep %v: %w", shape.dims, err)
		}
		rep.Points = append(rep.Points, pts...)
	}
	return rep, nil
}

// runStencilShape measures every halo width on one grid, sharing the
// world and the Cartesian communicator across widths (their
// construction is the shape's setup_ns; clocks reset between widths so
// each point's virtual makespan stands alone).
func runStencilShape(model *sim.CostModel, shape stencilShape) ([]StencilPoint, error) {
	const iters = 2
	ranks := shape.nodes * stencilPPN
	dimStr := ""
	for i, d := range shape.dims {
		if i > 0 {
			dimStr += "x"
		}
		dimStr += fmt.Sprint(d)
	}
	periods := make([]bool, len(shape.dims))
	for i := range periods {
		periods[i] = true
	}

	start := time.Now()
	topo, err := sim.Uniform(shape.nodes, stencilPPN)
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(model, topo)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	// One construction pass: build the reordered grid communicator per
	// rank and keep it for the measured passes.
	carts := make([]*mpi.Comm, ranks)
	err = w.Run(func(p *mpi.Proc) error {
		cart, err := p.CommWorld().CartCreate(shape.dims, periods, true)
		if err != nil {
			return err
		}
		carts[p.Rank()] = cart
		return nil
	})
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	var pts []StencilPoint
	for _, halo := range stencilHaloBytes {
		w.ResetClocks()
		// One sampler per point, so each point's peak reflects its
		// own run rather than the shape's construction high-water
		// mark.
		sampler := newGoroutineSampler()
		opStart := time.Now()
		err := w.Run(func(p *mpi.Proc) error {
			cart := carts[p.Rank()]
			in, _, _ := cart.Neighborhood()
			send := mpi.Sized(halo * len(in))
			recv := mpi.Sized(halo * len(in))
			for i := 0; i < iters; i++ {
				if err := coll.NeighborAlltoall(cart, send, recv, halo); err != nil {
					return err
				}
			}
			return nil
		})
		elapsed := time.Since(opStart)
		sampler.stop()
		if err != nil {
			return nil, err
		}
		pts = append(pts, StencilPoint{
			Dims: dimStr, Nodes: shape.nodes, PPN: stencilPPN, Ranks: ranks,
			HaloBytes: halo, Iters: iters,
			NsPerOp:        float64(elapsed.Nanoseconds()) / float64(iters),
			SetupNs:        float64(setup.Nanoseconds()),
			VirtualUs:      (w.MaxClock() / sim.Time(iters)).Us(),
			PeakGoroutines: sampler.peak(),
		})
	}
	w.Close()    // idempotent; the deferred Close covers error paths
	runtime.GC() // release this shape's world before the next one
	return pts, nil
}
