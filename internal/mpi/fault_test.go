package mpi

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// noisyWorld builds a world with the given noise config on a 2x4 grid.
func noisyWorld(t *testing.T, n *sim.Noise, opts ...Option) *World {
	t.Helper()
	opts = append(opts, WithNoise(n), WithRealData())
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// pingRing runs one compute+ring-exchange step per rank and returns the
// makespan.
func pingRing(t *testing.T, w *World) sim.Time {
	t.Helper()
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		p.Compute(1e6)
		// Separate buffers: a send must not read memory an outstanding
		// receive may be written into.
		sbuf, rbuf := w.NewBuf(4096), w.NewBuf(4096)
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		rq, err := c.Irecv(rbuf, prev, 7)
		if err != nil {
			return err
		}
		if err := c.Send(sbuf, next, 7); err != nil {
			return err
		}
		_, err = rq.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.MaxClock()
}

func TestNoiseDeterministicAcrossEnginesAndReruns(t *testing.T) {
	n := &sim.Noise{Seed: 11, Jitter: 0.3, Stragglers: []int{5}, StragglerFactor: 4,
		Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}
	var clocks [2]sim.Time
	for i, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, n, WithEngine(eng))
		first := pingRing(t, w)
		// Warm rerun: ResetClocks must give a bit-identical timeline.
		w.ResetClocks()
		if again := pingRing(t, w); again != first {
			t.Fatalf("engine %v: warm rerun %v != cold run %v", eng, again, first)
		}
		clocks[i] = first
	}
	if clocks[0] != clocks[1] {
		t.Fatalf("engines disagree under noise: goroutine %v, event %v", clocks[0], clocks[1])
	}

	// A different seed must actually change the timeline.
	other := &sim.Noise{Seed: 12, Jitter: 0.3, Stragglers: []int{5}, StragglerFactor: 4,
		Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}
	if c := pingRing(t, noisyWorld(t, other)); c == clocks[0] {
		t.Fatalf("seed change did not change the makespan (%v)", c)
	}
}

func TestNoiseSlowsThingsDown(t *testing.T) {
	clean := pingRing(t, noisyWorld(t, nil))
	congested := pingRing(t, noisyWorld(t,
		&sim.Noise{Congestion: map[sim.HopClass]float64{sim.HopNet: 8, sim.HopShm: 8}}))
	if congested <= clean {
		t.Errorf("congestion did not slow the ring: clean %v, congested %v", clean, congested)
	}
	straggled := pingRing(t, noisyWorld(t,
		&sim.Noise{Stragglers: []int{0}, StragglerFactor: 64}))
	if straggled <= clean {
		t.Errorf("straggler did not slow the ring: clean %v, straggled %v", clean, straggled)
	}
	jittered := pingRing(t, noisyWorld(t, &sim.Noise{Seed: 3, Jitter: 1.5}))
	if jittered <= clean {
		t.Errorf("jitter did not slow the ring: clean %v, jittered %v", clean, jittered)
	}
}

func TestNoiseRejectsFoldedAsymmetry(t *testing.T) {
	_, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4),
		WithFold(4), WithNoise(&sim.Noise{Seed: 1, Jitter: 0.1}))
	if !errors.Is(err, ErrFoldUnsafe) {
		t.Fatalf("jitter+fold accepted: %v", err)
	}
	// Congestion preserves rank symmetry and must stay foldable.
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4),
		WithFold(4), WithNoise(&sim.Noise{Congestion: map[sim.HopClass]float64{sim.HopNet: 2}}))
	if err != nil {
		t.Fatalf("congestion-only noise rejected under folding: %v", err)
	}
	w.Close()
}

func TestRankFailureP2P(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 1, At: 0}}},
			WithEngine(eng))
		errs := make([]error, w.Size())
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			switch p.Rank() {
			case 0:
				// Blocking receive from the rank that dies at its first
				// operation boundary.
				_, err := c.Recv(w.NewBuf(8), 1, 1)
				errs[0] = err
				return err
			case 1:
				p.Compute(1e6) // dies here (deadline 0)
				t.Error("rank 1 survived its scheduled failure")
				return nil
			default:
				return nil
			}
		})
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("engine %v: Run error = %v, want ErrRankFailed", eng, err)
		}
		if !errors.Is(errs[0], ErrRankFailed) {
			t.Fatalf("engine %v: rank 0 recv error = %v", eng, errs[0])
		}
		if !w.Damaged() {
			t.Errorf("engine %v: world not marked damaged", eng)
		}
		if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != 1 {
			t.Errorf("engine %v: DeadRanks = %v", eng, dead)
		}
	}
}

func TestRankFailurePreDeathSendStillDelivered(t *testing.T) {
	// Rank 1 sends before its deadline passes; the in-flight message
	// must still reach rank 0 (ULFM allows completing such transfers).
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 1, At: sim.Millisecond}}})
	var got byte
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			buf := w.NewBuf(1)
			if _, err := c.Recv(buf, 1, 1); err != nil {
				return err
			}
			got = buf.Raw()[0]
			return nil
		case 1:
			buf := w.NewBuf(1)
			buf.Raw()[0] = 42
			if err := c.Send(buf, 0, 1); err != nil {
				return err
			}
			p.Elapse(2 * sim.Millisecond)
			p.Compute(1) // past the deadline: dies
			return nil
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Fatalf("pre-death payload lost: got %d", got)
	}
}

func TestRankFailureSendToDead(t *testing.T) {
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 2, At: 0}}})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Give the failure time to happen in virtual terms, then wait
			// on a flag from rank 3 so the send below is posted after rank
			// 2's death in host time too.
			if err := c.RecvFlag(3, 9); err != nil {
				return err
			}
			return c.Send(w.NewBuf(1<<20), 2, 1)
		case 2:
			p.Compute(1) // dies
			return nil
		case 3:
			p.Elapse(sim.Millisecond)
			return c.SendFlag(0, 9)
		default:
			return nil
		}
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run error = %v, want ErrRankFailed", err)
	}
}

func TestRankFailureCollectiveAborts(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 3, At: 0}}},
			WithEngine(eng))
		err := w.Run(func(p *Proc) error {
			if p.Rank() == 3 {
				p.Compute(1) // dies
				return nil
			}
			p.CommWorld().FuseClocks(p.Clock())
			return nil
		})
		if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrAborted) {
			t.Fatalf("engine %v: collective with dead member: %v", eng, err)
		}
	}
}

func TestRevokeFailsPendingAndFutureOps(t *testing.T) {
	w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 7, At: 0}}})
	errs := make([]error, w.Size())
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Parked receive from a live rank that never sends; rank 1
			// revokes and this must wake with ErrRevoked.
			_, err := c.Recv(w.NewBuf(8), 5, 1)
			errs[0] = err
		case 1:
			p.Elapse(sim.Millisecond)
			c.Revoke()
			if !c.Revoked() {
				t.Error("Revoked() false after Revoke")
			}
			// Future ops on the revoked communicator fail too.
			errs[1] = c.Send(w.NewBuf(8), 5, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(errs[0], ErrRevoked) {
		t.Errorf("parked recv after revoke: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrRevoked) {
		t.Errorf("post-revoke send: %v", errs[1])
	}
}

func TestShrinkAndAgreeRecovery(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w := noisyWorld(t, &sim.Noise{Failures: []sim.Failure{{Rank: 2, At: 0}}},
			WithEngine(eng))
		sizes := make([]int, w.Size())
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() == 2 {
				p.Compute(1) // dies
				return nil
			}
			// Observe the failure first — real fault-tolerant code only
			// recovers after an operation failed. Ranks that post after a
			// faster peer already revoked see ErrRevoked instead of
			// ErrRankFailed; both mean "this communicator is broken".
			_, err := c.Recv(w.NewBuf(8), 2, 1)
			if !errors.Is(err, ErrRankFailed) && !errors.Is(err, ErrRevoked) {
				t.Errorf("rank %d: recv from dead rank: %v", p.Rank(), err)
			}
			c.Revoke()
			ok, err := c.Agree(true)
			if err != nil {
				return err
			}
			if !ok {
				t.Errorf("rank %d: Agree(true) over live members = false", p.Rank())
			}
			nc, err := c.Shrink()
			if err != nil {
				return err
			}
			sizes[p.Rank()] = nc.Size()
			// The shrunken communicator must be usable: ring exchange.
			sbuf, rbuf := w.NewBuf(64), w.NewBuf(64)
			next := (nc.Rank() + 1) % nc.Size()
			prev := (nc.Rank() + nc.Size() - 1) % nc.Size()
			rq, err := nc.Irecv(rbuf, prev, 3)
			if err != nil {
				return err
			}
			if err := nc.Send(sbuf, next, 3); err != nil {
				return err
			}
			_, err = rq.Wait()
			return err
		})
		if err != nil {
			t.Fatalf("engine %v: Run: %v", eng, err)
		}
		for r, s := range sizes {
			if r == 2 {
				continue
			}
			if s != w.Size()-1 {
				t.Errorf("engine %v: rank %d shrunken size %d, want %d", eng, r, s, w.Size()-1)
			}
		}
	}
}
