package main

import "testing"

// TestSeedDeterminesOps pins the generators' contract: one seed always
// yields the same op list, and two seeds yield different ones.
func TestSeedDeterminesOps(t *testing.T) {
	gens := map[string]func(int64) any{
		"paper_figs":  func(s int64) any { return genPaper(s) },
		"event_scale": func(s int64) any { return genEvent(s) },
		"service_mix": func(s int64) any { return genService(s) },
	}
	for name, gen := range gens {
		a, b, c := digest(gen(1)), digest(gen(1)), digest(gen(2))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", name, a)
		}
	}
}

// TestPaperPassIsBalanced checks that every prefix of a paper_figs
// list holds each figure in proportion to its share of the grid, so a
// run cut by its time budget sees the same mix whatever the seed.
func TestPaperPassIsBalanced(t *testing.T) {
	total := 0
	share := map[string]float64{}
	for _, g := range paperPoints() {
		total += len(g)
		share[g[0].Fig] = float64(len(g))
	}
	for seed := int64(1); seed <= 3; seed++ {
		seen := map[string]float64{}
		for i, o := range genPaper(seed) {
			seen[o.Fig]++
			for fig, n := range share {
				want := n * float64(i+1) / float64(total)
				if d := seen[fig] - want; d > 1 || d < -1 {
					t.Fatalf("seed %d: after %d ops %s has %.0f, want %.1f", seed, i+1, fig, seen[fig], want)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4) on small inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

// TestWeightedMedian checks that equal weights reproduce the plain
// median and that weights pull the median toward heavy values.
func TestWeightedMedian(t *testing.T) {
	for _, c := range []struct {
		vals, weights []float64
		want          float64
	}{
		{[]float64{3, 1, 2}, []float64{1, 1, 1}, 2},
		{[]float64{4, 1, 3, 2}, []float64{1, 1, 1, 1}, 2.5},
		{[]float64{1, 100}, []float64{9, 1}, 1},
		{[]float64{1, 100, 50}, []float64{1, 5, 1}, 100},
	} {
		if got := weightedMedian(c.vals, c.weights); got != c.want {
			t.Errorf("weightedMedian(%v, %v) = %v, want %v", c.vals, c.weights, got, c.want)
		}
	}
}
