package mpi

import "sync"

// rankPool is the persistent execution engine behind World.Run: one
// long-lived goroutine per rank, parked on a per-rank mailbox between
// calls. Spawning and tearing down a goroutine per rank per Run is the
// control-plane cost the 100k-rank sweeps cannot afford (a 65k-rank
// world would pay ~65k spawns for every measured operation), so Run
// dispatches work to the parked workers instead and the pool lives for
// the life of the World.
//
// The pool deliberately holds no reference back to the World: workers
// close over the pool and their mailbox only, and each dispatched job
// carries the *Proc it runs on. A World abandoned without Close
// therefore becomes unreachable even while its workers are parked, and
// the runtime cleanup registered at pool start (with the pool, never
// the World, as its argument) releases them — explicit Close is still
// the deterministic path the harnesses use.
type rankPool struct {
	size    int
	jobs    chan rankJob // shared dispatch queue, buffered to size
	quit    chan struct{}
	started bool
	stop    sync.Once
	workers sync.WaitGroup
}

// rankJob is one rank's share of a Run: the process to run on and the
// shared per-call state.
type rankJob struct {
	p  *Proc
	st *runState
}

// runState is the per-Run dispatch record, owned by the World and
// reused across calls so a steady-state Run allocates nothing.
type runState struct {
	body func(p *Proc) error
	errs []error
	wg   sync.WaitGroup
}

// newRankPool creates the pool shell; workers start lazily at the
// first Run so a World that is built but never run costs no goroutines.
func newRankPool(n int) *rankPool {
	return &rankPool{size: n, quit: make(chan struct{})}
}

// workerAssignment binds a free-agent worker to one world's pool for
// the pool's lifetime.
type workerAssignment struct {
	jobs    <-chan rankJob
	quit    <-chan struct{}
	workers *sync.WaitGroup
}

// freeWorkers is the cross-world worker reserve: when a pool shuts
// down, up to freeWorkerCap of its workers park here (holding their
// grown stacks) instead of exiting, and the next world's pool start
// reassigns them instead of spawning. Sweeps that churn through
// same-shape worlds stop paying a spawn plus stack-growth ramp per
// world; anything beyond the cap exits so a one-off 65k-rank world
// does not pin 65k idle stacks forever.
var freeWorkers = struct {
	mu   sync.Mutex
	idle []chan workerAssignment
}{}

const freeWorkerCap = 4096

// IdleWorkers reports how many parked workers the cross-world reserve
// currently holds. Long-running hosts (the what-if daemon's /metrics
// endpoint) export it as a pool-occupancy gauge.
func IdleWorkers() int {
	freeWorkers.mu.Lock()
	defer freeWorkers.mu.Unlock()
	return len(freeWorkers.idle)
}

// DrainIdleWorkers releases every worker parked on the cross-world
// reserve and returns how many it released. Workers still serving a
// live World are untouched (they re-park or exit on their own when
// that World closes), so this is the graceful-shutdown hook: after the
// last World is closed, a drain leaves the process with no simulator
// goroutines.
func DrainIdleWorkers() int {
	freeWorkers.mu.Lock()
	idle := freeWorkers.idle
	freeWorkers.idle = nil
	freeWorkers.mu.Unlock()
	for _, assign := range idle {
		close(assign)
	}
	return len(idle)
}

// freeAgent is a reusable worker: it serves one pool assignment at a
// time and re-parks itself on the reserve between worlds.
func freeAgent(assign chan workerAssignment) {
	for a := range assign {
		rankWorker(a.jobs, a.quit, a.workers)
		freeWorkers.mu.Lock()
		if len(freeWorkers.idle) >= freeWorkerCap {
			freeWorkers.mu.Unlock()
			return
		}
		freeWorkers.idle = append(freeWorkers.idle, assign)
		freeWorkers.mu.Unlock()
	}
}

// start assembles the pool's workers — reserve workers first, fresh
// spawns for the remainder. Called under the owning World's Run gate,
// so it never races with itself. One shared, size-buffered dispatch
// channel replaces per-rank mailboxes: a job carries the Proc it runs
// on, so any worker can take any rank, and a 65k-rank world allocates
// one queue instead of 65k.
func (rp *rankPool) start() {
	if rp.started {
		return
	}
	rp.started = true
	rp.jobs = make(chan rankJob, rp.size)
	rp.workers.Add(rp.size)

	need := rp.size
	freeWorkers.mu.Lock()
	n := len(freeWorkers.idle)
	take := n
	if take > need {
		take = need
	}
	// Copy the grabbed tail out: the idle slice's backing array is
	// appended to again by re-parking workers, so handing out an
	// aliased sub-slice would race.
	grabbed := make([]chan workerAssignment, take)
	copy(grabbed, freeWorkers.idle[n-take:])
	freeWorkers.idle = freeWorkers.idle[:n-take]
	freeWorkers.mu.Unlock()

	a := workerAssignment{jobs: rp.jobs, quit: rp.quit, workers: &rp.workers}
	for _, assign := range grabbed {
		assign <- a
		need--
	}
	for i := 0; i < need; i++ {
		assign := make(chan workerAssignment, 1)
		assign <- a
		go freeAgent(assign)
	}
}

// dispatch enqueues one rank's job. The queue is buffered to the world
// size and a Run has at most one job per rank outstanding, so the send
// never blocks.
func (rp *rankPool) dispatch(j rankJob) {
	rp.jobs <- j
}

// shutdown wakes every parked worker and waits for them to exit.
// Idempotent; safe on a pool that never started.
func (rp *rankPool) shutdown() {
	rp.stop.Do(func() { close(rp.quit) })
	rp.workers.Wait()
}

// release is the cleanup flavor of shutdown: it signals the workers
// but does not block the runtime's cleanup goroutine on their exit.
func (rp *rankPool) release() {
	rp.stop.Do(func() { close(rp.quit) })
}

// rankWorker is the parked worker loop. It deliberately references
// only the job queue, the quit channel and the worker group — never the
// World — so parked workers do not keep an abandoned World reachable.
// Jobs and quit cannot race: Close and the cleanup only fire when no
// Run is in flight, so a closed quit channel implies an empty queue.
func rankWorker(jobs <-chan rankJob, quit <-chan struct{}, workers *sync.WaitGroup) {
	defer workers.Done()
	for {
		select {
		case j := <-jobs:
			j.run()
		case <-quit:
			return
		}
	}
}

// run executes the rank body with the same recovery semantics the
// spawn-per-Run engine had: panics are recovered and reported as the
// rank's error, coordinator aborts surface as ErrAborted, and any
// failure aborts the job so blocked peers wake up.
func (j rankJob) run() {
	p, st := j.p, j.st
	defer st.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			st.errs[p.rank] = recoveredRankError(p, rec)
		}
	}()
	if err := st.body(p); err != nil {
		st.errs[p.rank] = &RankError{Rank: p.rank, Err: err}
		// A failing rank aborts the job, as mpirun would, so peers
		// blocked in collectives wake up with ErrAborted instead of
		// hanging.
		p.world.Abort()
	}
}
