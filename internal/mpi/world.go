// Package mpi is an MPI-like message-passing runtime over the simulated
// cluster of internal/sim. Each rank is a goroutine; communicators,
// point-to-point messaging, and MPI-3-style shared-memory windows follow
// the MPI-3 semantics the paper relies on (MPI_Comm_split_type,
// MPI_Win_allocate_shared, MPI_Win_shared_query, ...), while all timing
// is virtual and deterministic.
package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// World owns one simulated job: the topology, the cost model, the
// message-matching engine, the persistent rank pool, and the per-rank
// processes.
type World struct {
	topo   *sim.Topology
	model  *sim.CostModel
	tracer *sim.Tracer
	real   bool // real data movement (tests) vs size-only (big benches)

	match   *matcher
	coord   *coordinator
	nextCtx atomic.Int64
	collCfg any // default collective-tuning config inherited by CommWorld

	// Deterministic noise/fault layer (fault.go). noise is the compiled
	// per-world state (nil for a clean world); damaged latches once any
	// rank dies so pools never reuse a world with dead ranks; commRanks
	// maps context id -> member global ranks, maintained only under
	// failure configs so the coordinator's death walk can tell which
	// sessions a dead rank participates in.
	noise     *noiseState
	damaged   atomic.Bool
	commRanks sync.Map

	identity []int // comm rank == global rank table for COMM_WORLD
	procs    []*Proc

	// Execution engine: the persistent rank pool (goroutine backend),
	// the event scheduler (event backend, lazily created), the reusable
	// per-Run dispatch record, and the Run gate that enforces the
	// one-Run-at-a-time / no-clock-reads-during-Run contract. evLive is
	// set only while an event-engine Run is in flight; the park sites
	// (request.go, sched.go, coord.go) branch on it. The cleanups stop
	// each engine of a World dropped without Close (see Close).
	engine      sim.Engine
	ev          *evSched
	evLive      bool
	pool        *rankPool
	run         runState
	running     atomic.Bool
	closed      atomic.Bool
	poolCleanup runtime.Cleanup
	evCleanup   runtime.Cleanup

	// Rank-symmetry folding (fold.go): with foldUnit u > 0 only ranks
	// 0..u-1 execute; every rank r aliases the Proc of its class
	// representative r%u, so replica clocks are literally the
	// representative's. execN is the number of executing ranks (u when
	// folded, Size() otherwise).
	foldUnit int
	execN    int

	// setupSlots holds the SetupOnce slots: one once-guarded record per
	// (communicator context, coordination sequence) collective setup
	// call, through which derived-communicator plans (SplitLevel, the
	// composer geometry) are shared exchange-free (see derive.go).
	setupSlots sync.Map

	abortOnce sync.Once
	abortCh   chan struct{}
}

// ErrAborted is returned from blocking operations when another rank of
// the job failed. Real MPI jobs abort globally on rank failure; the
// simulator mirrors that so one rank's error cannot strand its peers in
// a barrier forever.
var ErrAborted = errors.New("mpi: job aborted because another rank failed")

// Abort wakes every blocked operation with ErrAborted. It is invoked
// automatically when a rank body returns an error or panics; tests use
// it directly for failure injection. A world stays poisoned after
// Abort.
//
// The hot wait paths (message completion, small-comm clock fusion)
// park on plain channel receives; Abort wakes those by poisoning their
// channels directly (matcher.poison, poisonFusers). The remaining
// waiters — exchange sessions, large-comm fusion trees — still select
// on abortCh and wake through its close.
func (w *World) Abort() {
	w.abortOnce.Do(func() {
		close(w.abortCh)
		w.match.poison()
		w.coord.poisonFusers()
	})
}

// Closed reports whether Close has run. A closed world cannot Run
// again; pools holding warm worlds consult it before parking one.
func (w *World) Closed() bool { return w.closed.Load() }

// Aborted reports whether the job was aborted.
func (w *World) Aborted() bool {
	select {
	case <-w.abortCh:
		return true
	default:
		return false
	}
}

// Config collects every World construction knob in one declarative,
// value-semantics record — the single construction path layered
// packages (internal/spec in particular) target. The functional
// options below are thin wrappers over its fields; DefaultConfig is
// the zero behavior NewWorld applies them to.
type Config struct {
	// Engine selects the execution backend Runs dispatch on:
	// sim.EngineGoroutine (one parked worker per rank) or
	// sim.EngineEvent (single-threaded discrete-event scheduler).
	// DefaultConfig seeds it from the package default (SetDefaultEngine).
	Engine sim.Engine
	// FoldUnit enables rank-symmetry folding: only ranks 0..FoldUnit-1
	// execute, every other rank aliases its class representative (see
	// fold.go for the contract). 0 runs every rank. The unit is
	// validated against the topology at construction.
	FoldUnit int
	// RealData makes buffers allocated through World helpers carry real
	// bytes and eager sends snapshot payloads. Tests use it; the big
	// size-only benchmark sweeps do not (see Buf). Incompatible with
	// FoldUnit > 0.
	RealData bool
	// Tracer, when non-nil, receives every simulated event.
	Tracer *sim.Tracer
	// CollConfig is the world-default collective-tuning configuration
	// (an internal/coll Tuning value, opaque here). Every rank's
	// CommWorld handle — and every communicator derived from it —
	// inherits the value.
	CollConfig any
	// Noise configures the deterministic noise/fault layer (compute
	// jitter, stragglers, link congestion, scheduled rank failures).
	// Nil (or a zero value) runs a perfectly clean world. A config
	// whose BreaksSymmetry() is true is incompatible with FoldUnit > 0.
	Noise *sim.Noise
}

// DefaultConfig returns the configuration NewWorld starts from before
// applying options: the package-default engine, no folding, size-only
// buffers, no tracer, no collective tuning.
func DefaultConfig() Config { return Config{Engine: DefaultEngine()} }

// Option configures a World at construction by editing its Config.
type Option func(*Config)

// WithRealData makes buffers allocated through World helpers carry real
// bytes and eager sends snapshot payloads (Config.RealData).
func WithRealData() Option { return func(c *Config) { c.RealData = true } }

// WithTracer attaches an event tracer (Config.Tracer).
func WithTracer(t *sim.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithCollConfig sets the world-default collective-tuning configuration
// (Config.CollConfig), which is how a workload or benchmark threads a
// tuning policy through to the hybrid and collective layers.
func WithCollConfig(v any) Option { return func(c *Config) { c.CollConfig = v } }

// WithEngine selects the execution backend for this world
// (Config.Engine), overriding the package default (see
// SetDefaultEngine).
func WithEngine(e sim.Engine) Option { return func(c *Config) { c.Engine = e } }

// WithFold enables rank-symmetry folding with the given fold unit
// (Config.FoldUnit).
func WithFold(unit int) Option { return func(c *Config) { c.FoldUnit = unit } }

// WithNoise attaches a deterministic noise/fault config (Config.Noise).
func WithNoise(n *sim.Noise) Option { return func(c *Config) { c.Noise = n } }

// defaultEngine holds the package-wide backend worlds are created with
// when no WithEngine option is given. Harnesses that construct worlds
// deep inside benchmark closures (internal/bench) switch engines
// through it without threading an option through every layer.
var defaultEngine atomic.Int32

// SetDefaultEngine sets the execution backend NewWorld uses when no
// WithEngine option is given. The process default is EngineGoroutine.
func SetDefaultEngine(e sim.Engine) { defaultEngine.Store(int32(e)) }

// DefaultEngine returns the current package-wide default backend.
func DefaultEngine() sim.Engine { return sim.Engine(defaultEngine.Load()) }

// NewWorld creates a simulated MPI job on the given topology and machine
// model, applying the options to DefaultConfig.
func NewWorld(model *sim.CostModel, topo *sim.Topology, opts ...Option) (*World, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return NewWorldConfig(model, topo, cfg)
}

// NewWorldConfig creates a simulated MPI job from an explicit Config —
// the declarative construction path. NewWorld's functional options are
// a thin layer over it.
func NewWorldConfig(model *sim.CostModel, topo *sim.Topology, cfg Config) (*World, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if topo == nil || topo.Size() == 0 {
		return nil, errors.New("mpi: nil or empty topology")
	}
	w := &World{
		topo:     topo,
		model:    model,
		engine:   cfg.Engine,
		real:     cfg.RealData,
		tracer:   cfg.Tracer,
		collCfg:  cfg.CollConfig,
		foldUnit: cfg.FoldUnit,
		match:    newMatcher(),
		coord:    newCoordinator(),
		abortCh:  make(chan struct{}),
	}
	if err := w.validateFold(); err != nil {
		return nil, err
	}
	if err := cfg.Noise.Validate(topo.Size()); err != nil {
		return nil, err
	}
	if cfg.Noise.BreaksSymmetry() && cfg.FoldUnit > 0 {
		return nil, fmt.Errorf("mpi: noise config breaks rank symmetry (jitter/stragglers/failures): %w", ErrFoldUnsafe)
	}
	w.noise = compileNoise(cfg.Noise, topo.Size())
	w.execN = topo.Size()
	if w.foldUnit > 0 {
		w.execN = w.foldUnit
	}
	w.pool = newRankPool(w.execN)
	w.match.fold = w.foldUnit
	w.match.sizeTo(w.execN)
	if w.hasFailures() {
		w.match.dead = make([]atomic.Bool, topo.Size())
	}
	w.identity = make([]int, topo.Size())
	w.procs = make([]*Proc, topo.Size())
	store := make([]Proc, w.execN) // one allocation, not one per rank
	for i := range store {
		store[i] = Proc{world: w, rank: i}
	}
	for r := range w.procs {
		w.identity[r] = r
		w.procs[r] = &store[r%w.execN]
	}
	w.registerComm(0, w.identity)
	return w, nil
}

// Engine returns the execution backend currently selected for Runs.
func (w *World) Engine() sim.Engine { return w.engine }

// SetEngine switches the execution backend for subsequent Runs. Both
// backends may be used on the same World interchangeably (each is
// created lazily and kept until Close); virtual clocks are
// bit-identical either way. Must not be called while a Run is in
// flight.
func (w *World) SetEngine(e sim.Engine) {
	w.assertNotRunning("SetEngine")
	w.engine = e
}

// Topology returns the node layout.
func (w *World) Topology() *sim.Topology { return w.topo }

// Model returns the machine cost model.
func (w *World) Model() *sim.CostModel { return w.model }

// RealData reports whether buffers carry real bytes.
func (w *World) RealData() bool { return w.real }

// Size returns the number of ranks.
func (w *World) Size() int { return w.topo.Size() }

// NewBuf allocates a buffer honoring the world's data mode.
func (w *World) NewBuf(n int) Buf { return Alloc(n, w.real) }

// newContext issues a fresh communication context id (one per
// communicator), isolating message matching between communicators.
func (w *World) newContext() int { return int(w.nextCtx.Add(1)) }

// RankError describes a failure on one rank of a Run.
type RankError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// ErrClosed is returned by Run on a World whose pool was shut down.
var ErrClosed = errors.New("mpi: world closed")

// Run executes body once per rank on the persistent rank pool and waits
// for all of them. Workers are long-lived goroutines parked on per-rank
// mailboxes: the first Run spawns them, every later Run reuses them, so
// the steady state dispatches without spawning or allocating. Panics
// inside a rank are recovered and reported as that rank's error. The
// returned error joins every failing rank's error (errors.Join), nil if
// all ranks succeeded.
//
// Run may be called repeatedly on the same World; clocks continue from
// where the previous Run left them (use ResetClocks between independent
// measurements). This is the warm-world contract the spec layer's
// world pool is built on: a world that finished a Run cleanly (no
// error, no abort) is drained — matcher queues empty, coordinator
// sessions released — and a ResetClocks+Run cycle on it produces
// virtual times bit-identical to a freshly constructed world of the
// same shape. Run on an aborted world fails immediately with
// ErrAborted (the world stays poisoned), and on a closed world with
// ErrClosed. Calls must not overlap: a second Run while one is in
// flight panics.
func (w *World) Run(body func(p *Proc) error) error {
	if w.closed.Load() {
		return ErrClosed
	}
	if w.Aborted() {
		return fmt.Errorf("mpi: Run on poisoned world: %w", ErrAborted)
	}
	if !w.running.CompareAndSwap(false, true) {
		panic("mpi: concurrent World.Run calls")
	}
	defer w.running.Store(false)

	st := &w.run
	st.body = body
	if st.errs == nil {
		st.errs = make([]error, w.execN)
	} else {
		clear(st.errs)
	}
	if w.engine == sim.EngineEvent {
		if w.ev == nil {
			w.ev = newEvSched(w.execN)
			w.evCleanup = runtime.AddCleanup(w, (*evSched).shutdown, w.ev)
		}
		w.evLive = true
		w.ev.run(w)
		w.evLive = false
	} else {
		if !w.pool.started {
			w.pool.start()
			w.poolCleanup = runtime.AddCleanup(w, (*rankPool).release, w.pool)
		}
		st.wg.Add(w.execN)
		for r := 0; r < w.execN; r++ {
			w.pool.dispatch(rankJob{p: w.procs[r], st: st})
		}
		st.wg.Wait()
	}
	st.body = nil
	err := errors.Join(st.errs...)
	if w.foldUnit > 0 {
		err = w.finishFoldedRun(err)
	}
	return err
}

// recoveredRankError converts a recovered rank panic into the rank's
// reported error. Coordinator waits signal job aborts by panicking with
// ErrAborted; those are reported cleanly rather than as crashes. Any
// other panic aborts the job.
func recoveredRankError(p *Proc, rec any) error {
	if rec == errRankKilled {
		// A scheduled death is not a bug: the rank simply stops. Its
		// peers observe the failure through the fault machinery
		// (ErrRankFailed) and decide whether to recover or abort.
		return nil
	}
	if e, ok := rec.(error); ok {
		if errors.Is(e, ErrAborted) {
			return &RankError{Rank: p.rank, Err: e}
		}
		if errors.Is(e, ErrRankFailed) || errors.Is(e, ErrRevoked) {
			// A rank that gives up on a peer's failure (instead of
			// recovering via Revoke/Shrink) fails the job, MPI's
			// MPI_ERRORS_ARE_FATAL default. Abort so ranks parked in
			// collectives with the dead rank wake up.
			p.world.Abort()
			return &RankError{Rank: p.rank, Err: e}
		}
		if errors.Is(e, ErrFoldUnsafe) {
			// A fold-unsafe operation is symmetric: every executing
			// rank hits the same guard. Abort so any rank already
			// parked in the offending collective wakes up.
			p.world.Abort()
			return &RankError{Rank: p.rank, Err: e}
		}
	}
	p.world.Abort()
	return &RankError{
		Rank: p.rank,
		Err:  fmt.Errorf("panic: %v\n%s", rec, debug.Stack()),
	}
}

// Close shuts both engines down: parked pool workers wake up and exit
// (or return to the cross-world reserve), every event-engine coroutine
// is stopped before Close returns, and later Run calls fail with
// ErrClosed. Close is idempotent and safe on a world that never ran;
// it must not be called while a Run is in flight. Worlds the harnesses
// churn through (one per measured operation) should be closed so their
// goroutines are released deterministically. A world dropped without
// Close releases them through a runtime cleanup (runtime.AddCleanup)
// once the GC finds it unreachable; the cleanup's arguments, the rank
// pool and the event scheduler, never reference the World between
// Runs, so they do not keep it alive. Close cancels those cleanups:
// left pending, they keep each closed world's engine reachable until
// the runtime runs them, which on worlds churned one per query more
// than doubled the GC's mark time.
func (w *World) Close() {
	if w.running.Load() {
		panic("mpi: Close during Run")
	}
	if w.closed.CompareAndSwap(false, true) {
		w.pool.shutdown()
		w.poolCleanup.Stop()
		if w.ev != nil {
			w.ev.shutdown()
			w.evCleanup.Stop()
		}
		if !w.Aborted() {
			// All fusions completed, so the trees' channels are empty
			// and the trees can serve the next same-shape world.
			w.coord.releaseTrees()
		}
	}
}

// assertNotRunning guards the clock accessors: per-rank clocks are
// owned by the rank goroutines while a Run is in flight, so reading or
// writing them concurrently would race. They are meaningful only
// between Runs.
func (w *World) assertNotRunning(op string) {
	if w.running.Load() {
		panic("mpi: " + op + " during Run — clocks are owned by the rank goroutines while a Run is in flight")
	}
}

// ResetClocks zeroes every rank's virtual clock (between benchmark
// repetitions). It must not be called while a Run is in flight.
func (w *World) ResetClocks() {
	w.assertNotRunning("ResetClocks")
	for _, p := range w.procs {
		p.clock = 0
		p.noiseOps = 0
	}
}

// MaxClock returns the latest clock across ranks — the virtual makespan
// of everything run so far. It must not be called while a Run is in
// flight.
func (w *World) MaxClock() sim.Time {
	w.assertNotRunning("MaxClock")
	var max sim.Time
	for _, p := range w.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// Proc returns the process object for a rank (for post-Run inspection).
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }
