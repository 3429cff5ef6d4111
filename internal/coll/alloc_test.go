package coll

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestFoldedHierWarmRunAllocation guards the fold-aware composer plan:
// on a folded 2^20-rank event world only the fold unit's ranks
// execute, so a warm NewHier+Allgather Run (geometry cached) must not
// allocate per-rank tables, handle arenas included, for the other
// ranks of the world.
func TestFoldedHierWarmRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts are meaningless")
	}
	const per = 8
	model := sim.HazelHenCray()
	topo := sim.MustUniform(8192, 128)
	u := HierAllgatherFoldUnit(model, topo, per, Tuning{})
	if u == 0 {
		t.Fatal("8192x128 allgather does not fold")
	}
	w, err := mpi.NewWorld(model, topo, mpi.WithEngine(sim.EngineEvent), mpi.WithFold(u))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := func(p *mpi.Proc) error {
		h, err := NewHier(p.CommWorld())
		if err != nil {
			return err
		}
		return h.Allgather(mpi.Sized(per), mpi.Sized(per*p.Size()), per)
	}
	if err := w.Run(body); err != nil { // cold: builds and caches the geometry
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("warm folded 2^20-rank NewHier+Allgather Run allocated %d bytes, want < %d", got, limit)
	}
}
