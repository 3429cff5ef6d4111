package mpi

import "iter"

// This file is the discrete-event execution backend (sim.EngineEvent):
// a cooperative single-threaded scheduler that runs exactly one ready
// rank at a time and hands control off through an event (ready) queue,
// instead of letting the Go runtime schedule all ranks in parallel and
// park them on channels (pool.go, sim.EngineGoroutine).
//
// Rank bodies are arbitrary Go closures, so each executing rank is a
// runtime coroutine (iter.Pull): a goroutine of its own that only ever
// runs when the scheduler switches into it. What the event core
// eliminates is everything the parallel engine pays for concurrency:
// lock contention in the matcher and coordinator, host scheduler
// churn, cache-line traffic between rank stacks, and the
// nondeterminism of execution order. Combined with rank-symmetry
// folding (fold logic in world.go/p2p.go), which shrinks the number of
// *executing* ranks to the number of distinct rank behaviors, it is
// what makes million-rank worlds affordable.
//
// Scheduling protocol. Run's caller is the trampoline: it pops the
// ready ring and resumes that rank's coroutine, which runs until it
// blocks (evAwait, a coordinator wait, a Test poll) or finishes its
// body, and then switches straight back. A rank whose operation
// completes is enqueued on the ready ring by the completer (wake) and
// resumed on a later trampoline turn. A handoff is a direct coroutine
// switch: it never enters the Go scheduler or wakes a second thread.
// All scheduler state (states, ready ring, done count) is mutated only
// by whichever of the trampoline and the ranks is running, and every
// switch is a happens-before edge, so the backend is race-detector
// clean by construction.
//
// Abort. External goroutines may only close the world's abort channel
// and poison the matcher/coordinator (World.Abort) — they never touch
// scheduler state. When the trampoline finds the ready ring empty with
// ranks still parked, no internal event can ever complete them: it
// blocks on the abort channel (a genuine deadlock hangs there, just
// like the goroutine engine) and, once poisoned, wakes every parked
// rank so each can observe its sentinel or the aborted flag.
//
// No continuation reserve. Unlike the goroutine engine's freeWorkers,
// coroutines are not parked across worlds for reuse: every parked
// coroutine's stack is scanned on every GC cycle (2–3 µs each), and a
// reserve of thousands of them made the allocating cold folded queries
// slower (measurements in DESIGN.md).

// Per-rank scheduler states. Only the running party reads or writes
// them (see the protocol note above), so they are plain ints.
const (
	evIdle    int32 = iota // between Runs
	evReady                // enqueued on the ready ring
	evRunning              // switched into (at most one rank)
	evParked               // blocked in evAwait or a coordinator wait
	evDone                 // body finished this Run
)

// evSched is the event scheduler of one World: per-rank coroutines and
// the ready ring. It is created lazily at the first event-engine Run
// and lives until Close. Between Runs it holds no reference to the
// World, so it can serve as the argument of the World's leak cleanup.
type evSched struct {
	n      int                       // executing ranks (World.execN)
	resume []func() (struct{}, bool) // switch into rank r
	stops  []func()                  // end rank r's coroutine
	yields []func(struct{}) bool     // switch from rank r back to Run
	state  []int32
	ready  []int32 // ring buffer; each rank appears at most once
	rhead  int
	rlen   int
	done   int    // ranks finished this Run
	w      *World // the running World; nil between Runs
}

// newEvSched builds the scheduler and one coroutine per rank. A
// coroutine starts at its first resume.
func newEvSched(n int) *evSched {
	ev := &evSched{
		n:      n,
		resume: make([]func() (struct{}, bool), n),
		stops:  make([]func(), n),
		yields: make([]func(struct{}) bool, n),
		state:  make([]int32, n),
		ready:  make([]int32, n),
	}
	for r := range n {
		ev.resume[r], ev.stops[r] = iter.Pull(ev.rank(r))
	}
	return ev
}

// rank is rank r's coroutine: one body execution per Run, with the
// same recovery and abort semantics as the goroutine engine's rankJob,
// then a switch back to the trampoline to wait for the next Run.
func (ev *evSched) rank(r int) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		ev.yields[r] = yield
		for {
			ev.runBody(r)
			ev.state[r] = evDone
			ev.done++
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

// run executes one Run of w on the calling goroutine, the trampoline:
// it resumes one ready rank at a time until every rank is done.
func (ev *evSched) run(w *World) {
	ev.w = w
	ev.done, ev.rhead, ev.rlen = 0, 0, 0
	for r := range ev.n {
		ev.state[r] = evReady
		ev.pushReady(r)
	}
	for ev.done < ev.n {
		if ev.rlen == 0 {
			// Every unfinished rank is parked: only an abort can
			// unblock a single-threaded world.
			<-w.abortCh
			ev.wakeAllParked()
			continue
		}
		r := ev.ready[ev.rhead]
		ev.rhead = (ev.rhead + 1) % ev.n
		ev.rlen--
		ev.state[r] = evRunning
		ev.resume[r]()
	}
	ev.w = nil
}

func (ev *evSched) pushReady(r int) {
	ev.ready[(ev.rhead+ev.rlen)%ev.n] = int32(r)
	ev.rlen++
}

// wakeAllParked readies every parked rank after an abort, so each can
// drain its poison sentinel or observe the aborted state and unwind.
func (ev *evSched) wakeAllParked() {
	for r := range ev.n {
		ev.wake(r)
	}
}

// wake enqueues a parked rank whose awaited record was just completed.
// Called by the completing rank; idempotent for ranks already ready,
// running, or done — a rank parked on record B may be woken by record
// A's completion, re-check B, and park again.
func (ev *evSched) wake(r int) {
	if ev.state[r] == evParked {
		ev.state[r] = evReady
		ev.pushReady(r)
	}
}

// park blocks the calling rank: it switches back to the trampoline
// until a wake readies it again. The caller must re-check its wait
// condition on resume (wakes can be spurious, see wake).
func (ev *evSched) park(r int) {
	ev.state[r] = evParked
	ev.yields[r](struct{}{})
}

// yield re-enqueues the calling rank behind the current ready set and
// switches back to the trampoline — the polling primitive behind Test
// in event mode, where a spin loop would otherwise starve every other
// rank forever.
func (ev *evSched) yield(r int) {
	ev.state[r] = evReady
	ev.pushReady(r)
	ev.yields[r](struct{}{})
}

func (ev *evSched) runBody(r int) {
	p, st := ev.w.procs[r], &ev.w.run
	defer func() {
		if rec := recover(); rec != nil {
			st.errs[r] = recoveredRankError(p, rec)
		}
	}()
	if err := st.body(p); err != nil {
		st.errs[r] = &RankError{Rank: r, Err: err}
		p.world.Abort()
	}
}

// shutdown ends every rank's coroutine before it returns. Only legal
// between Runs, when every coroutine waits at the end of its body;
// idempotent.
func (ev *evSched) shutdown() {
	for _, stop := range ev.stops {
		stop()
	}
}

// evAwait is the event-mode replacement for a blocking channel receive
// on a matcher record (message.done / recvReq.result): poll the
// channel, park if empty, re-check on every wake. After an abort the
// receive is taken directly — the poison walk delivers a sentinel to
// every queued record and completions are synchronous, so the channel
// is guaranteed to produce a value.
func evAwait[T any](ev *evSched, rank int, ch chan T) T {
	for {
		select {
		case v := <-ch:
			return v
		default:
		}
		if ev.w.Aborted() {
			return <-ch
		}
		ev.park(rank)
	}
}
