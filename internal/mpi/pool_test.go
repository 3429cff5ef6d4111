package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// Pool lifecycle coverage: Run must reuse the parked workers instead of
// spawning per call, Abort must behave in both the parked and the
// active phase, and Close must be idempotent.

// goroutinesSettled samples the goroutine count until it stops moving
// (worker hand-offs finish asynchronously).
func goroutinesSettled() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func TestRunReusesPoolGoroutines(t *testing.T) {
	w := newTestWorld(t, 1, 8)
	defer w.Close()
	body := func(p *Proc) error { return p.CommWorld().Barrier() }
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	after1 := goroutinesSettled()
	for i := 0; i < 50; i++ {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	after51 := goroutinesSettled()
	if after51 > after1+2 {
		t.Errorf("goroutines grew across repeated Runs: %d after first, %d after 51 — workers not reused", after1, after51)
	}
}

func TestRunSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	body := func(p *Proc) error { return nil }
	for i := 0; i < 16; i++ {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
	})
	// The dispatch path itself is allocation-free; a tiny budget covers
	// runtime scheduling internals (sudog cache refills and the like).
	if avg >= 4 {
		t.Errorf("steady-state Run allocates %.2f objects/op, want ~0", avg)
	}
}

func TestAbortWhileParked(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	if err := w.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Pool is parked between Runs; Abort must poison the world without
	// disturbing the parked workers.
	w.Abort()
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrAborted) {
		t.Errorf("Run on aborted world returned %v, want ErrAborted", err)
	}
}

func TestAbortWhileActiveThenRunRefuses(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return errors.New("deserter")
		}
		return p.CommWorld().Barrier()
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("active-phase abort not propagated: %v", err)
	}
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrAborted) {
		t.Errorf("Run after active-phase abort returned %v, want ErrAborted", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	// Close on a never-run world.
	w := newTestWorld(t, 1, 2)
	w.Close()
	w.Close()
	if err := w.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}

	// Close (twice) on a world that ran.
	w2 := newTestWorld(t, 2, 2)
	if err := w2.Run(func(p *Proc) error { return p.CommWorld().Barrier() }); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w2.Close()
	if err := w2.Run(func(p *Proc) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}
}

func TestWorkersReusedAcrossWorlds(t *testing.T) {
	// A closed world's workers return to the cross-world reserve; the
	// next same-sized world must not spawn a full complement again.
	w := newTestWorld(t, 1, 8)
	if err := w.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.Close()
	base := goroutinesSettled()
	w2 := newTestWorld(t, 1, 8)
	defer w2.Close()
	if err := w2.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := goroutinesSettled()
	if after > base+2 {
		t.Errorf("second world grew goroutines %d -> %d; reserve workers not reused", base, after)
	}
}

func TestMaxClockDuringRunPanics(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	defer w.Close()
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			w.MaxClock() // contract violation: clocks are owned by rank goroutines
		}
		return nil
	})
	if err == nil {
		t.Fatal("MaxClock during Run did not fail")
	}
	if want := "MaxClock during Run"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestRepeatedRunMaxClockRace drives the documented contract — clock
// reads strictly between Runs — under the race detector: the CI race
// job fails here if MaxClock/ResetClocks ever race with the pool.
func TestRepeatedRunMaxClockRace(t *testing.T) {
	w := newTestWorld(t, 2, 3)
	defer w.Close()
	for i := 0; i < 25; i++ {
		if err := w.Run(func(p *Proc) error {
			p.Elapse(1)
			return p.CommWorld().Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		if got := w.MaxClock(); got <= 0 {
			t.Fatalf("iteration %d: makespan %v", i, got)
		}
		w.ResetClocks()
		if w.MaxClock() != 0 {
			t.Fatal("clocks not reset")
		}
	}
}

// TestDroppedWorldReleasesGoroutines is the leak backstop: a world that
// ran and was then dropped without Close must give back every goroutine
// it started, on either engine, once the GC finds it unreachable (plus
// a reserve drain for the goroutine engine's workers). It catches any
// reference from a parked worker or coroutine back to the World, which
// would keep the World, and so its goroutines, alive forever.
func TestDroppedWorldReleasesGoroutines(t *testing.T) {
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		DrainIdleWorkers()
		base := goroutinesSettled()
		func() {
			w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 16), WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(mixedBody(1)); err != nil {
				t.Fatal(err)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("engine %v: %d goroutines after dropping a 64-rank world, baseline %d",
					e, runtime.NumGoroutine(), base)
			}
			runtime.GC()
			DrainIdleWorkers()
			time.Sleep(5 * time.Millisecond)
		}
	}
}
