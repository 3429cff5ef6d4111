package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Everything in this file turns a seed into a workload's inputs. The
// program under test only ever sees the generated ops; equal seeds give
// equal lists, and digest identifies a list in the printed results.

// machines are the two cost profiles of the paper's evaluation.
var machines = []string{"hazelhen-cray", "vulcan-openmpi"}

// coresPerNode is the node width of both clusters in the paper.
const coresPerNode = 24

// paperOp is one point of the paper's evaluation.
type paperOp struct {
	Fig     string `json:"fig"`
	Kind    string `json:"kind"` // allgather, bcast, summa or bpmf
	Machine string `json:"machine"`
	Nodes   []int  `json:"nodes"` // ranks per node
	Bytes   int    `json:"bytes,omitempty"`
	Grid    int    `json:"grid,omitempty"`
	Block   int    `json:"block,omitempty"`
	Hybrid  bool   `json:"hybrid"`
}

// shapeFor lays cores over 24-core nodes SMP-style, the scheme behind
// the Fig. 11/12 core counts (1024 cores = 42 full nodes + one 16-rank
// node).
func shapeFor(cores int) []int {
	var shape []int
	for cores > 0 {
		n := min(cores, coresPerNode)
		shape = append(shape, n)
		cores -= n
	}
	return shape
}

func uniform(nodes, ppn int) []int {
	s := make([]int, nodes)
	for i := range s {
		s[i] = ppn
	}
	return s
}

func (o paperOp) key() string {
	flavor := "pure"
	if o.Hybrid {
		flavor = "hy"
	}
	ranks := 0
	for _, n := range o.Nodes {
		ranks += n
	}
	shape := fmt.Sprintf("%dn%dr", len(o.Nodes), ranks)
	switch o.Kind {
	case "summa":
		return fmt.Sprintf("%s/%s/%s/b%d/%s", o.Fig, o.Machine, shape, o.Block, flavor)
	case "bpmf":
		return fmt.Sprintf("%s/%s/%s/%s", o.Fig, o.Machine, shape, flavor)
	}
	return fmt.Sprintf("%s/%s/%s/%s/%dB/%s", o.Fig, o.Kind, o.Machine, shape, o.Bytes, flavor)
}

// paperPoints is the paper's own evaluation grid, every point in both
// flavors on both cost profiles: Fig. 7 (one full node), Fig. 9 (64
// nodes, ppn 3..24), Fig. 10 (42x24 + 1x16 irregular), the bcast
// comparison, SUMMA (Fig. 11, up to 1024 cores) and BPMF (Fig. 12, up
// to 480 cores).
func paperPoints() [][]paperOp {
	elems := []int{1, 4, 16, 64, 256, 1024, 4096, 16384}
	fig10 := append(uniform(42, coresPerNode), 16)
	var fig7, fig9, fig10ops, bcast, fig11, fig12 []paperOp
	for _, m := range machines {
		for _, hy := range []bool{false, true} {
			for _, e := range elems {
				fig7 = append(fig7, paperOp{Fig: "fig7", Kind: "allgather", Machine: m, Nodes: []int{coresPerNode}, Bytes: 8 * e, Hybrid: hy})
				fig10ops = append(fig10ops, paperOp{Fig: "fig10", Kind: "allgather", Machine: m, Nodes: fig10, Bytes: 8 * e, Hybrid: hy})
			}
			for ppn := 3; ppn <= 24; ppn += 3 {
				for _, e := range []int{512, 16384} {
					fig9 = append(fig9, paperOp{Fig: "fig9", Kind: "allgather", Machine: m, Nodes: uniform(64, ppn), Bytes: 8 * e, Hybrid: hy})
				}
			}
			for _, shape := range [][]int{{coresPerNode}, uniform(64, 12), fig10} {
				for _, b := range []int{512, 65536} {
					bcast = append(bcast, paperOp{Fig: "bcast", Kind: "bcast", Machine: m, Nodes: shape, Bytes: b, Hybrid: hy})
				}
			}
			for _, cores := range []int{4, 16, 64, 256, 1024} {
				grid := 1
				for grid*grid < cores {
					grid++
				}
				for _, block := range []int{8, 64, 128, 256} {
					fig11 = append(fig11, paperOp{Fig: "fig11", Kind: "summa", Machine: m, Nodes: shapeFor(cores), Grid: grid, Block: block, Hybrid: hy})
				}
			}
			for _, cores := range []int{24, 120, 240, 360, 480} {
				fig12 = append(fig12, paperOp{Fig: "fig12", Kind: "bpmf", Machine: m, Nodes: shapeFor(cores), Hybrid: hy})
			}
		}
	}
	return [][]paperOp{fig7, fig9, fig10ops, bcast, fig11, fig12}
}

// genPaper is a seeded shuffle of the paper's points. Each figure's
// points are shuffled, then the figures are interleaved in proportion
// to their sizes, so every prefix of the list (a run cut by its time
// budget) holds the same mix of figures whatever the seed.
func genPaper(seed int64) []paperOp {
	rng := rand.New(rand.NewSource(seed))
	groups := paperPoints()
	lists := make([][]int, len(groups))
	for g := range groups {
		lists[g] = rng.Perm(len(groups[g]))
	}
	var out []paperOp
	for _, pick := range interleave(lists) {
		out = append(out, groups[pick[0]][pick[1]])
	}
	return out
}

// interleave merges lists by smooth weighted round robin, weight =
// list length: it returns (list, element) pairs such that every prefix
// takes from each list in proportion to its length.
func interleave(lists [][]int) [][2]int {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	credit := make([]int, len(lists))
	next := make([]int, len(lists))
	out := make([][2]int, 0, total)
	for len(out) < total {
		best := -1
		for g, l := range lists {
			if next[g] == len(l) {
				continue
			}
			credit[g] += len(l)
			if best < 0 || credit[g] > credit[best] {
				best = g
			}
		}
		credit[best] -= total
		out = append(out, [2]int{best, lists[best][next[best]]})
		next[best]++
	}
	return out
}

// eventOp is one spec.Query run on the event engine with fold "auto".
type eventOp struct {
	Query string `json:"query"`
}

// eventShape is one event_scale world and what runs on it.
type eventShape struct {
	nodes, ppn int
	machine    string
	collective string
}

// The event_scale shapes and their order are fixed, so every seed runs
// the same mix of world sizes, machines and collectives in the same
// order: a cold query's cost depends on the heap the queries before it
// left behind. The seed picks each query's message size from a band
// where the algorithm choice, and so the cost, stays put. Power-of-two
// worlds fold; the others cannot and run every rank. Both groups have
// an odd number of shapes, so their medians fall on one shape rather
// than between two.
var (
	foldedShapes = []eventShape{
		{4096, 16, "hazelhen-cray", "allgather"}, {4096, 32, "vulcan-openmpi", "allgather"},
		{1024, 128, "hazelhen-cray", "allgather"}, {8192, 32, "vulcan-openmpi", "allgather"},
		{2048, 128, "hazelhen-cray", "allgather"}, {8192, 64, "vulcan-openmpi", "allgather"},
		{8192, 128, "hazelhen-cray", "allgather"},
	}
	unfoldedShapes = []eventShape{
		{50, 64, "hazelhen-cray", "allgather"}, {200, 16, "vulcan-openmpi", "bcast"},
		{48, 72, "vulcan-openmpi", "allgather"}, {75, 48, "hazelhen-cray", "bcast"},
		{40, 96, "hazelhen-cray", "allgather"}, {125, 32, "vulcan-openmpi", "bcast"},
		{60, 60, "vulcan-openmpi", "allgather"},
	}
)

// foldedIters is how many allgathers one folded query runs.
const foldedIters = 4

// genEvent alternates folded and unfolded shapes and lists every query
// twice in a row: the first runs with the process's topology and
// geometry caches cold for its shape, the second warm.
func genEvent(seed int64) []eventOp {
	rng := rand.New(rand.NewSource(seed))
	query := func(s eventShape, iters int) string {
		// Allgather blocks of 32-64 KiB. Broadcasts stay at 1-8 KiB:
		// from 16 KiB up, bcast on these unfolded worlds switches
		// algorithm and takes 4-10 s instead of 10-40 ms.
		b := 32768 + 8*rng.Intn(4097)
		if s.collective == "bcast" {
			b = 1024 + 8*rng.Intn(897)
		}
		return fmt.Sprintf(`{"machine":%q,"topology":{"nodes":%d,"ppn":%d},"collective":%q,"sizes":[%d],"iters":%d,"engine":"event","fold":"auto"}`,
			s.machine, s.nodes, s.ppn, s.collective, b, iters)
	}
	var out []eventOp
	for i := range foldedShapes {
		// A folded query runs its allgather foldedIters times: one warm
		// allgather takes a few milliseconds, short enough that whether
		// a collection of the cached geometry's large heap overlaps it
		// decides its time.
		for _, q := range []string{query(foldedShapes[i], foldedIters), query(unfoldedShapes[i], 1)} {
			out = append(out, eventOp{q}, eventOp{q})
		}
	}
	return out
}

// serviceReq is one HTTP request of the service stream.
type serviceReq struct {
	Path string `json:"path"`
	Body string `json:"body"`
	Key  string `json:"key"`
}

// serviceMix is the generated request stream: a small hot set, a pool
// of distinct /v1/run queries larger than the daemon's result cache (so
// each pass over it misses), and small /v1/price and /v1/canon pools.
type serviceMix struct {
	Hot    []serviceReq `json:"hot"`
	Miss   []serviceReq `json:"miss"`
	Price  []serviceReq `json:"price"`
	Canon  []serviceReq `json:"canon"`
	Stream []serviceReq `json:"-"`
	// Order is the stream as (pool, index) pairs; Stream resolves it.
	Order [][2]int `json:"order"`
}

const (
	hotQueries   = 16
	missQueries  = 1024
	priceQueries = 32
	canonQueries = 16
	streamLen    = 1 << 16
	// serviceCache is the daemon's result-cache capacity: far above the
	// hot set, far below the miss pool.
	serviceCache = 128
)

var (
	serviceShapes = [][2]int{{4, 8}, {8, 4}, {2, 16}}
	hotShapes     = [][2]int{{4, 8}, {8, 4}, {2, 16}, {4, 4}}
)

func runQuery(machine string, s [2]int, collective string, sizes []int, noise string) string {
	sz := make([]string, len(sizes))
	for i, b := range sizes {
		sz[i] = fmt.Sprint(b)
	}
	q := fmt.Sprintf(`{"machine":%q,"topology":{"nodes":%d,"ppn":%d},"collective":%q,"sizes":[%s]`,
		machine, s[0], s[1], collective, strings.Join(sz, ","))
	if noise != "" {
		q += `,"noise":` + noise
	}
	return q + "}"
}

func genService(seed int64) *serviceMix {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	size := func() int { return 8 * (1 + rng.Intn(8192)) }
	mix := &serviceMix{}
	for len(mix.Hot) < hotQueries {
		colls := []string{"allgather", "bcast", "allreduce", "barrier"}
		q := runQuery(machines[rng.Intn(2)], hotShapes[len(mix.Hot)%len(hotShapes)], colls[rng.Intn(len(colls))], []int{size()}, "")
		if !seen[q] {
			seen[q] = true
			mix.Hot = append(mix.Hot, serviceReq{"/v1/run", q, fmt.Sprintf("hot/%d", len(mix.Hot))})
		}
	}
	// Two seeded noise blocks shared by a quarter of the misses: few
	// enough distinct blocks that their worlds stay pooled.
	noises := []string{
		fmt.Sprintf(`{"seed":%d,"jitter":0.%02d}`, rng.Intn(1<<30), 5+rng.Intn(20)),
		fmt.Sprintf(`{"seed":%d,"congestion":{"net":%d}}`, rng.Intn(1<<30), 2+rng.Intn(3)),
	}
	for len(mix.Miss) < missQueries {
		colls := []string{"allgather", "bcast", "allreduce"}
		noise := ""
		if rng.Intn(4) == 0 {
			noise = noises[rng.Intn(len(noises))]
		}
		q := runQuery(machines[rng.Intn(2)], serviceShapes[rng.Intn(len(serviceShapes))], colls[rng.Intn(len(colls))], []int{size()}, noise)
		if !seen[q] {
			seen[q] = true
			mix.Miss = append(mix.Miss, serviceReq{"/v1/run", q, fmt.Sprintf("miss/%d", len(mix.Miss))})
		}
	}
	priceShapes := [][2]int{{64, 24}, {1024, 64}, {43, 24}, {16, 16}}
	priceColls := []string{"allgather", "bcast", "allreduce", "reduce", "alltoall", "gather", "scan"}
	for len(mix.Price) < priceQueries {
		sizes := make([]int, 1+rng.Intn(4))
		for i := range sizes {
			sizes[i] = size()
		}
		q := runQuery(machines[rng.Intn(2)], priceShapes[rng.Intn(len(priceShapes))], priceColls[rng.Intn(len(priceColls))], sizes, "")
		mix.Price = append(mix.Price, serviceReq{"/v1/price", q, fmt.Sprintf("price/%d", len(mix.Price))})
	}
	for len(mix.Canon) < canonQueries {
		// Unsorted ladders with a duplicate give canonicalization work.
		a, b := size(), size()
		q := runQuery(machines[rng.Intn(2)], priceShapes[rng.Intn(len(priceShapes))], priceColls[rng.Intn(len(priceColls))], []int{b, a, b}, "")
		mix.Canon = append(mix.Canon, serviceReq{"/v1/canon", q, fmt.Sprintf("canon/%d", len(mix.Canon))})
	}
	pools := [][]serviceReq{mix.Hot, mix.Miss, mix.Price, mix.Canon}
	nextMiss := 0
	for range streamLen {
		var pick [2]int
		switch r := rng.Float64(); {
		case r < 0.85:
			pick = [2]int{0, rng.Intn(hotQueries)}
		case r < 0.97:
			pick = [2]int{1, nextMiss % missQueries}
			nextMiss++
		case r < 0.99:
			pick = [2]int{2, rng.Intn(priceQueries)}
		default:
			pick = [2]int{3, rng.Intn(canonQueries)}
		}
		mix.Order = append(mix.Order, pick)
		mix.Stream = append(mix.Stream, pools[pick[0]][pick[1]])
	}
	return mix
}

// digest is a short hash of a generated list's JSON form.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // the op types always marshal
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
