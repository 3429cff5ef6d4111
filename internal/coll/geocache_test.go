package coll

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The composer geometry must be shared across worlds of the same shape
// (the scale sweeps rebuild identical worlds for every measurement) and
// never shared across different memberships or stacks.

func TestComposerGeomCachedAcrossWorlds(t *testing.T) {
	topo := sim.MustUniformHier(3, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
	members := make([]int, topo.Size())
	for i := range members {
		members[i] = i
	}
	g1, err := composerGeomFor(topo, members, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := composerGeomFor(topo, members, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("identical (topology, membership, stack) did not hit the geometry cache")
	}
	// A rebuilt topology of the same shape interns to the same object,
	// so a fresh world still hits.
	topo2 := sim.MustUniformHier(3, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
	g3, err := composerGeomFor(topo2, members, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g3 != g1 {
		t.Error("rebuilt same-shape topology missed the geometry cache")
	}
	// Different stack or membership must not share.
	g4, err := composerGeomFor(topo, members, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if g4 == g1 {
		t.Error("different level stacks share a cached geometry")
	}
	g5, err := composerGeomFor(topo, members[:6], []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g5 == g1 {
		t.Error("different memberships share a cached geometry")
	}
}

// TestComposerArenaCoversExecutingRanks pins the plan's handle-arena
// sizing: it covers every member below the executing-rank bound,
// wherever that member sits in comm-rank order, and nothing past the
// last one.
func TestComposerArenaCoversExecutingRanks(t *testing.T) {
	topo := sim.MustUniform(2, 4)
	ascending := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g, err := composerGeomFor(topo, ascending, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0..3 hold a node handle each and rank 0 also the bridge's.
	if got := g.arenaLen(4); got != 5 {
		t.Errorf("ascending members, 4 executing: arena %d, want 5", got)
	}
	if got, want := g.arenaLen(8), int(g.handleOff[8]); got != want {
		t.Errorf("unfolded: arena %d, want all %d handles", got, want)
	}
	// Global rank 0 is the last comm rank: the arena must reach it.
	reversed := []int{7, 6, 5, 4, 3, 2, 1, 0}
	g, err = composerGeomFor(topo, reversed, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.arenaLen(1), int(g.handleOff[8]); got != want {
		t.Errorf("reversed members, 1 executing: arena %d, want %d", got, want)
	}
}

// TestComposerMatchesHistoricalSplitConstruction cross-checks the
// derived tier communicators against the generic exchange-based Split
// chain the seed used — same groups, same ranks, same leader order —
// and the slot order and group tables against the seed's sort of
// per-member leader chains, rebuilt here from the Split communicators.
func TestComposerMatchesHistoricalSplitConstruction(t *testing.T) {
	fig10 := make([]int, 43)
	for i := range fig10 {
		fig10[i] = 24
	}
	fig10[42] = 16
	cases := []struct {
		name   string
		topo   *sim.Topology
		levels []int
		// sub derives the communicator the composer is built over
		// (nil: the world communicator).
		sub func(c *mpi.Comm) (*mpi.Comm, error)
		// permuted: the slot order must differ from comm-rank order.
		permuted bool
	}{
		{
			name:   "socket_node_2x2x3",
			topo:   sim.MustUniformHier(2, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 3}),
			levels: []int{0, 1},
		},
		{
			name:   "fig10_irregular_42x24_1x16",
			topo:   mustTopology(t, fig10),
			levels: []int{0},
		},
		{
			name: "three_level_numa_socket_node",
			topo: sim.MustUniformHier(2,
				sim.LevelDim{Name: "numa", Arity: 2},
				sim.LevelDim{Name: "socket", Arity: 2},
				sim.LevelDim{Name: "node", Arity: 3}),
			levels: []int{0, 1, 2},
		},
		{
			// Parity split with reversed round-robin keys: comm ranks
			// alternate between nodes, and the leaders' comm-rank order
			// runs against the topology's group-id order.
			name:   "parity_split_reversed_cyclic_keys",
			topo:   sim.MustUniformHier(3, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 3}),
			levels: []int{0, 1},
			sub: func(c *mpi.Comm) (*mpi.Comm, error) {
				topo := c.Proc().World().Topology()
				g := c.Global(c.Rank())
				return c.Split(g%2, -(topo.LocalRank(g)*topo.Nodes() + topo.NodeOf(g)))
			},
			permuted: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkComposerAgainstSplits(t, tc.topo, tc.levels, tc.sub, tc.permuted)
		})
	}
}

// splitRecord collects, per communicator, what each member saw: the
// global rank of its leader at every tier it belongs to (-1 elsewhere)
// and its rank in its innermost group, plus the composer's shared
// tables.
type splitRecord struct {
	members []int
	leaders [][]int // comm rank -> tier -> leader global rank
	sub0    []int   // comm rank -> rank within its tier-0 group
	slots   []int
	firsts  [][]int
	sizes   [][]int
}

func checkComposerAgainstSplits(t *testing.T, topo *sim.Topology, levels []int, sub func(*mpi.Comm) (*mpi.Comm, error), permuted bool) {
	w, err := mpi.NewWorld(sim.Laptop(), topo)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var mu sync.Mutex
	records := map[int]*splitRecord{} // keyed by the comm's first global rank
	err = w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		if sub != nil {
			var err error
			if c, err = sub(c); err != nil {
				return err
			}
		}
		comp, err := NewComposer(c, levels)
		if err != nil {
			return err
		}
		// Historical construction with generic Splits.
		var prev *mpi.Comm
		var tiers []*mpi.Comm
		for i, l := range levels {
			color := mpi.Undefined
			if i == 0 || (prev != nil && prev.Rank() == 0) {
				color = topo.GroupOf(l, c.Global(c.Rank()))
			}
			sub, err := c.Split(color, c.Rank())
			if err != nil {
				return err
			}
			tiers = append(tiers, sub)
			prev = sub
		}
		topColor := mpi.Undefined
		if last := tiers[len(tiers)-1]; last != nil && last.Rank() == 0 {
			topColor = 0
		}
		top, err := c.Split(topColor, c.Rank())
		if err != nil {
			return err
		}

		for i := range tiers {
			cmpComms(t, p.Rank(), comp.Tier(i), tiers[i])
		}
		cmpComms(t, p.Rank(), comp.Top(), top)

		mu.Lock()
		defer mu.Unlock()
		rec := records[c.Global(0)]
		if rec == nil {
			n := c.Size()
			rec = &splitRecord{members: c.Ranks(), leaders: make([][]int, n), sub0: make([]int, n)}
			records[c.Global(0)] = rec
		}
		me := c.Rank()
		rec.sub0[me] = tiers[0].Rank()
		for _, tc := range tiers {
			lead := -1
			if tc != nil {
				lead = tc.Global(0)
			}
			rec.leaders[me] = append(rec.leaders[me], lead)
		}
		if me == 0 {
			rec.slots = comp.RanksBySlot()
			for i := range levels {
				rec.firsts = append(rec.firsts, comp.GroupFirsts(i))
				rec.sizes = append(rec.sizes, comp.GroupSizes(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no communicator recorded")
	}
	for key, rec := range records {
		slots, firsts, sizes := leaderChainOrder(rec, len(levels))
		if identity := slices.IsSorted(rec.slots); identity == permuted {
			t.Errorf("comm %d: slot order %v, want permuted=%v", key, rec.slots, permuted)
		}
		if !slices.Equal(rec.slots, slots) {
			t.Errorf("comm %d: RanksBySlot %v, leader-chain sort %v", key, rec.slots, slots)
		}
		for i := range levels {
			if !slices.Equal(rec.firsts[i], firsts[i]) || !slices.Equal(rec.sizes[i], sizes[i]) {
				t.Errorf("comm %d tier %d: GroupFirsts/Sizes %v/%v, leader-chain sort %v/%v",
					key, i, rec.firsts[i], rec.sizes[i], firsts[i], sizes[i])
			}
		}
	}
}

// leaderChainOrder is the seed's slot order: members sorted by their
// transitively resolved leader chain, outermost tier first, then by
// rank within the innermost group; each tier's groups are the runs of
// slots sharing that tier's leader.
func leaderChainOrder(rec *splitRecord, tiers int) (slots []int, firsts, sizes [][]int) {
	n := len(rec.members)
	commOf := map[int]int{}
	for r, g := range rec.members {
		commOf[g] = r
	}
	chain := make([][]int, n)
	for r := range chain {
		lead := r
		for t := 0; t < tiers; t++ {
			lead = commOf[rec.leaders[lead][t]]
			chain[r] = append(chain[r], lead)
		}
	}
	slots = make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		for t := tiers - 1; t >= 0; t-- {
			if chain[a][t] != chain[b][t] {
				return chain[a][t] < chain[b][t]
			}
		}
		return rec.sub0[a] < rec.sub0[b]
	})
	firsts, sizes = make([][]int, tiers), make([][]int, tiers)
	for t := 0; t < tiers; t++ {
		for s, r := range slots {
			if s == 0 || chain[r][t] != chain[slots[s-1]][t] {
				firsts[t] = append(firsts[t], s)
				sizes[t] = append(sizes[t], 0)
			}
			sizes[t][len(sizes[t])-1]++
		}
	}
	return slots, firsts, sizes
}

func mustTopology(t *testing.T, nodeSizes []int) *sim.Topology {
	t.Helper()
	topo, err := sim.NewTopology(nodeSizes)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func cmpComms(t *testing.T, rank int, got, want *mpi.Comm) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("rank %d: derived comm nil-ness %v, split comm %v", rank, got == nil, want == nil)
		return
	}
	if got == nil {
		return
	}
	if got.Rank() != want.Rank() || got.Size() != want.Size() {
		t.Errorf("rank %d: derived %d/%d, split %d/%d", rank, got.Rank(), got.Size(), want.Rank(), want.Size())
	}
	for r := 0; r < got.Size() && r < want.Size(); r++ {
		if got.Global(r) != want.Global(r) {
			t.Errorf("rank %d: member %d is global %d (derived) vs %d (split)", rank, r, got.Global(r), want.Global(r))
		}
	}
}
