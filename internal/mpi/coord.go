package mpi

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// The coordinator implements the untimed rendezvous primitives behind
// communicator setup (exchange) and clock fusion (FuseClocks). The seed
// implementation funneled both through one mutex and one map, which
// became the control-plane bottleneck at 1k+ ranks: every shared-memory
// barrier of every node-level communicator serialized on the same lock.
// Two structures replace it:
//
//   - exchange sessions live in a sharded map (hashed by session key),
//     their records recycled through a pool and deleted as soon as the
//     last member leaves, so the maps stay small and mostly uncontended;
//   - FuseClocks bypasses maps and locks entirely: each communicator
//     context gets a persistent binary fusion tree of per-rank channels
//     (see clockTree), so concurrent barriers on different node
//     communicators never touch shared state.

// coordShardCount is the number of session-map shards (power of two).
const coordShardCount = 64

type coordKey struct{ ctx, seq int }

type coordSession struct {
	vals      []any
	remaining int
	released  int
	failed    bool          // a member died: every waiter fails with ErrRankFailed
	done      chan struct{} // created lazily by the first waiter's arrival
	waiters   []int         // event-engine parked ranks, woken by the completer
}

// coordSessionPool recycles session records. Only the record is pooled:
// the vals vector escapes to every caller (exchange returns it), so it
// is detached before the record goes back.
var coordSessionPool = sync.Pool{New: func() any { return new(coordSession) }}

type coordShard struct {
	mu       sync.Mutex
	sessions map[coordKey]*coordSession
	// Pad shards apart so neighboring locks don't share a cache line.
	_ [40]byte
}

type coordinator struct {
	shards [coordShardCount]coordShard
	trees  sync.Map // ctx int -> *clockTree (large comms)

	// Fuser creation and the abort poison walk are ordered through
	// fuserMu: a cell is either inserted before the walk (which then
	// poisons it) or its creator observes fusersPoisoned — a rank can
	// never park in a cell the walk missed.
	fuserMu        sync.Mutex
	fusersPoisoned bool
	fusers         sync.Map // ctx int -> *clockFuser (small comms)
}

func newCoordinator() *coordinator {
	co := &coordinator{}
	for i := range co.shards {
		co.shards[i].sessions = make(map[coordKey]*coordSession, 4)
	}
	return co
}

func (co *coordinator) shard(key coordKey) *coordShard {
	h := uint64(key.ctx)*0x9e3779b97f4a7c15 ^ uint64(key.seq)*0xbf58476d1ce4e5b9
	return &co.shards[(h>>32)&(coordShardCount-1)]
}

// exchange blocks until all size members of the (ctx, seq) session have
// contributed, then returns the full contribution vector to each. The
// session record is deleted and recycled when the last member leaves;
// the maps never accumulate completed sessions. If the job aborts while
// waiting, exchange panics with ErrAborted; the panic is recovered by
// World.Run and reported as the rank's error.
//
// In event mode (p.world.evLive) a waiting member cannot block on the
// done channel — that would stall the single-threaded scheduler — so
// it registers itself on the session's waiter list and parks; the
// completing member wakes the list. Wakes can be spurious (any record
// completion readies the rank), hence the re-check loop.
func (co *coordinator) exchange(key coordKey, p *Proc, rank, size int, val any) []any {
	w := p.world
	sh := co.shard(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	if s == nil {
		s = coordSessionPool.Get().(*coordSession)
		s.vals = make([]any, size)
		s.remaining = size
		s.released = 0
		s.failed = false
		s.done = nil
		sh.sessions[key] = s
	}
	if s.failed {
		// The death walk failed this session before we arrived; a dead
		// member means it can never complete.
		sh.mu.Unlock()
		panic(fmt.Errorf("mpi: setup exchange with failed member: %w", ErrRankFailed))
	}
	s.vals[rank] = val
	s.remaining--
	complete := s.remaining == 0
	if complete {
		if s.done != nil {
			close(s.done)
		}
		for _, wr := range s.waiters {
			w.ev.wake(wr)
		}
		s.waiters = s.waiters[:0]
	} else if s.done == nil {
		s.done = make(chan struct{})
	}
	done := s.done
	vals := s.vals
	sh.mu.Unlock()

	// The member that completed the session already holds every
	// contribution; everyone else waits for the close (non-blocking
	// attempt first — late arrivals find it already closed).
	if !complete {
		if w.evLive {
			for !chanClosed(done) {
				if w.Aborted() {
					panic(ErrAborted)
				}
				sh.mu.Lock()
				s.waiters = append(s.waiters, p.rank)
				sh.mu.Unlock()
				w.ev.park(p.rank)
			}
		} else {
			select {
			case <-done:
			default:
				select {
				case <-done:
				case <-w.abortCh:
					panic(ErrAborted)
				}
			}
		}
	}

	// The close of done (or the completer's own arrival) happens after
	// any failed-flag write, so the flag is safely readable here.
	if s.failed {
		// A member died mid-session. The record stays in the map (never
		// pooled — stragglers may still be waking through it); the world
		// is damaged and either aborts or recovers on a fresh context.
		panic(fmt.Errorf("mpi: setup exchange with failed member: %w", ErrRankFailed))
	}

	sh.mu.Lock()
	s.released++
	if s.released == size {
		delete(sh.sessions, key)
		s.vals = nil
		s.waiters = s.waiters[:0]
		coordSessionPool.Put(s)
	}
	sh.mu.Unlock()
	return vals
}

// chanClosed reports (without blocking) whether a signal channel is
// closed. Only valid for channels that are never sent to.
func chanClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// FuseClocks runs on one of two per-context fusion engines, both of
// which eliminate the seed's global session map and mutex (every
// shared-memory barrier of every node communicator serialized there):
//
//   - clockFuser, a counter cell, for small communicators: arrivals
//     fold their clock into the round's max under a per-context lock,
//     all but the last park once on the round's done channel. Minimal
//     park count, but the lock and the broadcast wake are O(n) on one
//     spot, so
//   - clockTree, a binary channel tree, serves large communicators,
//     where fan-in through tree edges keeps any single lock or wake
//     list constant-size.
const clockTreeMin = 65 // comm size at which fusion switches to the tree

// fuseRound is one fusion round of a clockFuser. Records are pooled;
// the done channel is created lazily by the first member that has to
// wait and closed by the round's last arriver (or Abort's poison walk,
// which also sets aborted).
type fuseRound struct {
	max       sim.Time
	remaining int
	released  int
	aborted   bool
	failed    bool // a member died mid-round (see coordinator.failRank)
	done      chan struct{}
	waiters   []int // event-engine parked ranks (see exchange)
}

var fuseRoundPool = sync.Pool{New: func() any { return new(fuseRound) }}

// clockFuser is the counter-cell engine: one live round at a time
// (FuseClocks is collective and called in lockstep, so a member of
// round k+1 can only arrive after round k completed on its goroutine —
// but stragglers of round k may still be waking up, which is why
// rounds are separate pooled records rather than fields of the cell).
// The park is a plain channel receive: abort is delivered by poisoning
// the live round under the same mutex (poisonFusers), never by a
// second select case.
type clockFuser struct {
	mu      sync.Mutex
	aborted bool
	failed  bool // a communicator member died: the context is unusable
	cur     *fuseRound
}

// fuse folds the caller's clock into the current round. failed, when
// non-nil, re-checks for dead communicator members under f.mu — closing
// the race between the caller's collective-entry check and a concurrent
// death, which would otherwise let a member park in a round the death
// walk already visited (or will never visit, for a cell created after
// the walk).
func (f *clockFuser) fuse(p *Proc, size int, clk sim.Time, failed func() bool) sim.Time {
	w := p.world
	f.mu.Lock()
	if f.aborted {
		f.mu.Unlock()
		panic(ErrAborted)
	}
	if f.failed || (failed != nil && failed()) {
		f.mu.Unlock()
		panic(fmt.Errorf("mpi: clock fusion with failed member: %w", ErrRankFailed))
	}
	r := f.cur
	if r == nil {
		r = fuseRoundPool.Get().(*fuseRound)
		r.max = clk
		r.remaining = size
		r.released = 0
		r.aborted = false
		r.failed = false
		r.done = nil
		f.cur = r
	} else if clk > r.max {
		r.max = clk
	}
	r.remaining--
	last := r.remaining == 0
	if last {
		f.cur = nil
		if r.done != nil {
			close(r.done)
		}
		for _, wr := range r.waiters {
			w.ev.wake(wr)
		}
		r.waiters = r.waiters[:0]
	} else if r.done == nil {
		r.done = make(chan struct{})
	}
	done := r.done
	f.mu.Unlock()

	if !last {
		if w.evLive {
			// Event mode: park on the scheduler instead of the channel;
			// the round's last arriver (or the abort poison, via the
			// scheduler's abort path) wakes us. Re-check after every
			// wake — wakes can be spurious.
			for !chanClosed(done) {
				f.mu.Lock()
				r.waiters = append(r.waiters, p.rank)
				f.mu.Unlock()
				w.ev.park(p.rank)
			}
		} else {
			<-done
		}
		if r.aborted {
			panic(ErrAborted)
		}
		if r.failed {
			panic(fmt.Errorf("mpi: clock fusion with failed member: %w", ErrRankFailed))
		}
	}
	res := r.max
	f.mu.Lock()
	r.released++
	if r.released == size {
		r.done = nil
		r.waiters = r.waiters[:0]
		fuseRoundPool.Put(r)
	}
	f.mu.Unlock()
	return res
}

// clockTree is the tree engine: one node per comm rank, wired as a
// binary heap (children of i are 2i+1 and 2i+2). A fusion flows child
// contributions up the tree (each node maxing them with its own clock)
// and the root's result back down. Channels are buffered so the
// pipelined hand-offs of back-to-back fusions never block, and
// consecutive fusions need no session bookkeeping at all: the tree
// edges themselves sequence the rounds. Max is commutative and
// associative, so the result is deterministic regardless of arrival
// order.
type clockTree struct {
	nodes []clockNode
}

type clockNode struct {
	up   chan sim.Time // contributions from this node's children
	down chan sim.Time // result from this node's parent
}

func newClockTree(size int) *clockTree {
	t := &clockTree{nodes: make([]clockNode, size)}
	for i := range t.nodes {
		t.nodes[i] = clockNode{up: make(chan sim.Time, 2), down: make(chan sim.Time, 1)}
	}
	return t
}

// clockTreePools recycles fusion trees across worlds, one pool per
// size: a completed fusion leaves every channel empty, so a tree from
// a cleanly closed world is indistinguishable from a fresh one, and a
// sweep that churns through same-shape worlds stops allocating
// thousands of channels per world. Trees of aborted worlds may hold
// residue and are never returned.
var clockTreePools sync.Map // size int -> *sync.Pool

func getClockTree(size int) *clockTree {
	v, ok := clockTreePools.Load(size)
	if !ok {
		v, _ = clockTreePools.LoadOrStore(size, &sync.Pool{})
	}
	if t, ok := v.(*sync.Pool).Get().(*clockTree); ok {
		return t
	}
	return newClockTree(size)
}

func putClockTree(t *clockTree) {
	if v, ok := clockTreePools.Load(len(t.nodes)); ok {
		v.(*sync.Pool).Put(t)
	}
}

// clockFuser returns the counter cell for a communicator context,
// creating it on first use. Creation panics with ErrAborted on a
// poisoned coordinator: a cell minted after the poison walk would
// never be woken (see fuserMu).
func (co *coordinator) clockFuser(ctx int) *clockFuser {
	if v, ok := co.fusers.Load(ctx); ok {
		// Pre-existing cell: it was inserted under fuserMu before the
		// poison walk (and was poisoned) or the walk hasn't happened.
		return v.(*clockFuser)
	}
	co.fuserMu.Lock()
	if co.fusersPoisoned {
		co.fuserMu.Unlock()
		panic(ErrAborted)
	}
	v, _ := co.fusers.LoadOrStore(ctx, new(clockFuser))
	co.fuserMu.Unlock()
	return v.(*clockFuser)
}

// poisonFusers marks every counter cell aborted and wakes the parked
// members of any live round. Called once, from Abort. Holding fuserMu
// across the flag flip and the walk excludes concurrent creation, so
// no cell can slip past unpoisoned.
func (co *coordinator) poisonFusers() {
	co.fuserMu.Lock()
	defer co.fuserMu.Unlock()
	co.fusersPoisoned = true
	co.fusers.Range(func(_, v any) bool {
		f := v.(*clockFuser)
		f.mu.Lock()
		f.aborted = true
		if r := f.cur; r != nil {
			f.cur = nil
			r.aborted = true
			if r.done != nil {
				close(r.done)
			}
		}
		f.mu.Unlock()
		return true
	})
}

// failRank wakes the collective waiters a rank's death strands: fusion
// rounds and setup sessions on communicator contexts containing the
// dead rank can never complete (the dead member will not arrive), so
// they are failed — waiters wake and panic with ErrRankFailed. Runs on
// the dying rank's goroutine (the running rank in event mode, making
// the scheduler wakes safe). Holding fuserMu across the fuser walk
// orders it against cell creation, exactly like the abort poison; cells
// created after the walk are covered by fuse's under-lock dead re-check
// (the matcher's dead flag is published before this walk starts).
func (co *coordinator) failRank(w *World, rank int) {
	co.fuserMu.Lock()
	co.fusers.Range(func(k, v any) bool {
		if !w.ctxHasRank(k.(int), rank) {
			return true
		}
		f := v.(*clockFuser)
		f.mu.Lock()
		f.failed = true
		if r := f.cur; r != nil {
			f.cur = nil
			r.failed = true
			if r.done != nil {
				close(r.done)
			}
			if w.evLive {
				for _, wr := range r.waiters {
					w.ev.wake(wr)
				}
			}
			r.waiters = r.waiters[:0]
		}
		f.mu.Unlock()
		return true
	})
	co.fuserMu.Unlock()

	// Sessions still waiting on contributions (remaining > 0) from a
	// communicator containing the dead rank can never complete. Failed
	// sessions stay in their maps so late arrivals observe the flag;
	// completed sessions (remaining == 0) are left alone — their
	// stragglers only read the finished vals vector.
	for i := range co.shards {
		sh := &co.shards[i]
		sh.mu.Lock()
		for key, s := range sh.sessions {
			if s.remaining == 0 || s.failed || !w.ctxHasRank(key.ctx, rank) {
				continue
			}
			s.failed = true
			if s.done != nil {
				close(s.done)
			}
			if w.evLive {
				for _, wr := range s.waiters {
					w.ev.wake(wr)
				}
			}
			s.waiters = s.waiters[:0]
		}
		sh.mu.Unlock()
	}
}

// clockTree returns the fusion tree for a communicator context,
// creating it on first use. The losing copy of a creation race is
// returned to the pool; every rank ends up on the same tree.
func (co *coordinator) clockTree(ctx, size int) *clockTree {
	if v, ok := co.trees.Load(ctx); ok {
		return v.(*clockTree)
	}
	t := getClockTree(size)
	v, loaded := co.trees.LoadOrStore(ctx, t)
	if loaded {
		putClockTree(t)
	}
	return v.(*clockTree)
}

// releaseTrees returns every fusion tree to the cross-world pools.
// Only called for cleanly closed worlds (never after an abort, whose
// half-run fusions can leave values in the channels).
func (co *coordinator) releaseTrees() {
	co.trees.Range(func(k, v any) bool {
		putClockTree(v.(*clockTree))
		co.trees.Delete(k)
		return true
	})
}

// fuse runs one tree-structured max-reduction. Every member of the
// communicator must call it exactly once per fusion round (the
// collective lockstep FuseClocks already requires). Abort handling
// matches exchange: a closed abort channel panics with ErrAborted.
// Each channel operation tries the non-blocking form first: the
// buffered capacities make sends succeed immediately in the steady
// state, and contributions that already arrived skip the select
// machinery and the park on the receive side.
func (t *clockTree) fuse(rank int, clk sim.Time, abort <-chan struct{}) sim.Time {
	n := len(t.nodes)
	acc := clk
	left, right := 2*rank+1, 2*rank+2
	for c := left; c <= right && c < n; c++ {
		var v sim.Time
		select {
		case v = <-t.nodes[rank].up:
		default:
			select {
			case v = <-t.nodes[rank].up:
			case <-abort:
				panic(ErrAborted)
			}
		}
		if v > acc {
			acc = v
		}
	}
	if rank > 0 {
		select {
		case t.nodes[(rank-1)/2].up <- acc:
		default:
			select {
			case t.nodes[(rank-1)/2].up <- acc:
			case <-abort:
				panic(ErrAborted)
			}
		}
		select {
		case acc = <-t.nodes[rank].down:
		default:
			select {
			case acc = <-t.nodes[rank].down:
			case <-abort:
				panic(ErrAborted)
			}
		}
	}
	for c := left; c <= right && c < n; c++ {
		select {
		case t.nodes[c].down <- acc:
		default:
			select {
			case t.nodes[c].down <- acc:
			case <-abort:
				panic(ErrAborted)
			}
		}
	}
	return acc
}

// sessionCount reports the live sessions across all shards (tests).
func (co *coordinator) sessionCount() int {
	total := 0
	for i := range co.shards {
		sh := &co.shards[i]
		sh.mu.Lock()
		total += len(sh.sessions)
		sh.mu.Unlock()
	}
	return total
}
