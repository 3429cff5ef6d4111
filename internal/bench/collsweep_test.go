package bench

import (
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
)

func TestCollSweepStructure(t *testing.T) {
	rep := RunCollSweep(sim.HazelHenCray(), coll.Tuning{Policy: coll.PolicyCost})
	if rep.Policy != "cost" || rep.Model != "hazelhen-cray" {
		t.Errorf("header = %q/%q", rep.Model, rep.Policy)
	}
	if len(rep.Points) == 0 {
		t.Fatal("sweep produced no points")
	}
	// Every tunable collective must exhibit at least one crossover:
	// that is the whole point of a size-dependent selection engine.
	seen := map[string]bool{}
	for _, x := range rep.Crossovers {
		seen[x.Collective] = true
	}
	for _, want := range []string{"allgather", "allreduce", "bcast"} {
		if !seen[want] {
			t.Errorf("no crossover for %s", want)
		}
	}
	// Points must agree with Choose (the sweep is introspection, not a
	// second selection implementation), and the largest sizes must land
	// on the bandwidth-optimal algorithms.
	for _, p := range rep.Points {
		cl, err := coll.ParseCollective(p.Collective)
		if err != nil {
			t.Fatal(err)
		}
		e := coll.Env{Size: p.CommSize, Bytes: p.Bytes, Count: p.Bytes / 8,
			Model: sim.HazelHenCray(), Hop: sim.HopNet}
		want, err := coll.Choose(cl, e, coll.Tuning{Policy: coll.PolicyCost})
		if err != nil {
			t.Fatal(err)
		}
		if p.Chosen != want {
			t.Errorf("%s n=%d %dB: sweep says %q, Choose says %q",
				p.Collective, p.CommSize, p.Bytes, p.Chosen, want)
		}
		if p.Bytes == 4<<20 {
			switch p.Collective {
			case "allgather":
				if p.Chosen != "ring" {
					t.Errorf("allgather at 4 MiB chose %q, want ring", p.Chosen)
				}
			case "allreduce":
				if p.Chosen != "rabenseifner" {
					t.Errorf("allreduce at 4 MiB chose %q, want rabenseifner", p.Chosen)
				}
			case "bcast":
				// The pipeline's (n-1) chunk hops push its crossover
				// beyond 4 MiB on wide communicators; scag is still
				// a bandwidth algorithm, binomial is not.
				if p.Chosen == "binomial" {
					t.Errorf("bcast at 4 MiB still chose binomial (n=%d)", p.CommSize)
				}
			}
		}
	}
}

func TestCheckAgainst(t *testing.T) {
	base := &WallReport{Results: []WallResult{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "b", NsPerOp: 2000, AllocsPerOp: 0},
	}}
	ok := &WallReport{Results: []WallResult{
		{Name: "a", NsPerOp: 2500, AllocsPerOp: 105}, // 2.5x slower, allocs within slack
		{Name: "b", NsPerOp: 1000, AllocsPerOp: 10},  // faster, +10 allocs under flat grace
		{Name: "new-case", NsPerOp: 9e9},             // no baseline: skipped
	}}
	if v := ok.CheckAgainst(base, 3.0, 1.10); len(v) != 0 {
		t.Errorf("clean report flagged: %v", v)
	}
	slow := &WallReport{Results: []WallResult{
		{Name: "a", NsPerOp: 3500, AllocsPerOp: 100},
	}}
	if v := slow.CheckAgainst(base, 3.0, 1.10); len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Errorf("3.5x slowdown not flagged: %v", v)
	}
	leaky := &WallReport{Results: []WallResult{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 200},
	}}
	if v := leaky.CheckAgainst(base, 3.0, 1.10); len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Errorf("alloc regression not flagged: %v", v)
	}

	// Every virtual-time violation the gate raises: each mutation of an
	// otherwise identical report must produce exactly one violation
	// naming it, and the controls (a capped stencil ladder, times moved
	// under a different noise seed) must stay green.
	vbase := gatedBaseline()
	if v := gatedBaseline().CheckAgainst(vbase, 3.0, 1.10); len(v) != 0 {
		t.Fatalf("identical report flagged: %v", v)
	}
	cases := []struct {
		name   string
		mutate func(r *WallReport)
		want   []string // substrings of the one expected violation; nil = clean
	}{
		{"topo/sweep missing", func(r *WallReport) { r.TopoSweep = nil },
			[]string{"topo", "sweep missing"}},
		{"topo/sweep empty", func(r *WallReport) { r.TopoSweep.Points = nil },
			[]string{"topo", "sweep missing"}},
		{"topo/baseline point missing", func(r *WallReport) { r.TopoSweep.Points = r.TopoSweep.Points[:1] },
			[]string{"topo", "node/8x24/4096B", "baseline point missing"}},
		{"topo/hier moved", func(r *WallReport) { r.TopoSweep.Points[0].HierUs += 0.01 },
			[]string{"topo", "node/8x8/4096B", "virtual time moved"}},
		{"topo/hybrid moved", func(r *WallReport) { r.TopoSweep.Points[1].HybridUs -= 0.01 },
			[]string{"topo", "node/8x24/4096B", "virtual time moved"}},

		{"stencil/sweep missing", func(r *WallReport) { r.StencilSweep = nil },
			[]string{"stencil sweep missing"}},
		{"stencil/time moved", func(r *WallReport) { r.StencilSweep.Points[1].VirtualUs = 4.75 },
			[]string{"stencil", "8x8x8x8/64B", "virtual time moved"}},
		{"stencil/no common points", func(r *WallReport) {
			r.StencilSweep.Points = []StencilPoint{{Dims: "16x8x8x8", HaloBytes: 8, VirtualUs: 3.5}}
		}, []string{"stencil sweep shares no points"}},
		{"stencil/capped ladder", func(r *WallReport) { r.StencilSweep.Points = r.StencilSweep.Points[:1] },
			nil},

		{"noise/sweep missing", func(r *WallReport) { r.NoiseSweep = nil },
			[]string{"noise sweep missing"}},
		{"noise/lost bit-identity", func(r *WallReport) { r.NoiseSweep.BitIdentical = false },
			[]string{"noise sweep lost bit-identity"}},
		{"noise/time moved under the same seed", func(r *WallReport) { r.NoiseSweep.Points[1].VirtualPs++ },
			[]string{"noise", "jitter=0.1/4096B", "virtual time moved"}},
		{"noise/time moved under another seed", func(r *WallReport) {
			r.NoiseSweep.Seed = 7
			r.NoiseSweep.Points[1].VirtualPs++
		}, nil},
		{"noise/no common points", func(r *WallReport) {
			r.NoiseSweep.Points = []NoisePoint{{Label: "clean", Bytes: 262144, VirtualPs: 1000}}
		}, []string{"noise sweep shares no points"}},

		{"tuned/sweep missing", func(r *WallReport) { r.TunedSweep = nil },
			[]string{"tuned sweep missing"}},
		{"tuned/lost bit-identity", func(r *WallReport) { r.TunedSweep.BitIdentical = false },
			[]string{"tuned sweep lost bit-identity"}},
		{"tuned/beats cost on fewer than 2", func(r *WallReport) { r.TunedSweep.BeatsCost = 1 },
			[]string{"beats the cost policy on 1 points"}},
		{"tuned/time moved under the same seed", func(r *WallReport) { r.TunedSweep.Points[0].MeasuredPs-- },
			[]string{"tuned", "4096B", "virtual time moved"}},
		{"tuned/cost time moved under the same seed", func(r *WallReport) { r.TunedSweep.Points[0].CostPs++ },
			[]string{"tuned", "4096B", "virtual time moved"}},
		{"tuned/time moved under another seed", func(r *WallReport) {
			r.TunedSweep.Seed = 7
			r.TunedSweep.Points[0].MeasuredPs--
		}, nil},
		{"tuned/no common points", func(r *WallReport) {
			r.TunedSweep.Points = []TunedPoint{{Bytes: 8192, MeasuredPs: 500}}
		}, []string{"tuned sweep shares no points"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := gatedBaseline()
			c.mutate(cur)
			v := cur.CheckAgainst(vbase, 3.0, 1.10)
			if c.want == nil {
				if len(v) != 0 {
					t.Fatalf("flagged: %v", v)
				}
				return
			}
			if len(v) != 1 {
				t.Fatalf("got %d violations, want 1: %v", len(v), v)
			}
			for _, w := range c.want {
				if !strings.Contains(v[0], w) {
					t.Errorf("violation %q does not mention %q", v[0], w)
				}
			}
		})
	}
}

// gatedBaseline is a small baseline carrying every virtual-time
// dimension the gate pins.
func gatedBaseline() *WallReport {
	return &WallReport{
		TopoSweep: &TopoSweepReport{Points: []TopoPoint{
			{Stack: "node", Nodes: 8, PPN: 8, Bytes: 4096, HierUs: 10.5, HybridUs: 7.25},
			{Stack: "node", Nodes: 8, PPN: 24, Bytes: 4096, HierUs: 20.5, HybridUs: 9.25},
		}},
		StencilSweep: &StencilSweepReport{Points: []StencilPoint{
			{Dims: "8x8x8x8", HaloBytes: 8, VirtualUs: 3.5},
			{Dims: "8x8x8x8", HaloBytes: 64, VirtualUs: 4.5},
		}},
		NoiseSweep: &NoiseSweepReport{Seed: 42, BitIdentical: true, Points: []NoisePoint{
			{Label: "clean", Bytes: 4096, VirtualPs: 1000},
			{Label: "jitter=0.1", Bytes: 4096, VirtualPs: 1100},
		}},
		TunedSweep: &TunedSweepReport{Seed: 42, BitIdentical: true, BeatsCost: 2, Points: []TunedPoint{
			{Bytes: 4096, CostPs: 600, MeasuredPs: 500},
			{Bytes: 16384, CostPs: 1000, MeasuredPs: 900},
		}},
	}
}
