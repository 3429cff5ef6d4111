package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords loads a --results file: untraced and traced runs, each
// by workload.
func readRecords(path string) (untraced, traced map[string][]record, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	untraced, traced = map[string][]record{}, map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			traced[r.Workload] = append(traced[r.Workload], r)
		} else {
			untraced[r.Workload] = append(untraced[r.Workload], r)
		}
	}
	return untraced, traced, sc.Err()
}

// compareEvents reports whether mpi.events_per_op, an exact count,
// repeats across every traced run of one seed on both sides.
func compareEvents(w io.Writer, a, b map[string][]record) {
	for _, name := range sortedKeys(a) {
		bySeed := map[int64]map[float64]bool{}
		for _, r := range append(append([]record(nil), a[name]...), b[name]...) {
			if bySeed[r.Seed] == nil {
				bySeed[r.Seed] = map[float64]bool{}
			}
			bySeed[r.Seed][r.Metrics["mpi.events_per_op"].Value] = true
		}
		for seed, vals := range bySeed {
			verdict := "exact"
			if len(vals) > 1 {
				verdict = "DIFFERS"
			}
			fmt.Fprintf(w, "%s seed %d: mpi.events_per_op %v: %s\n", name, seed, sortedFloats(vals), verdict)
		}
	}
}

func sortedFloats(set map[float64]bool) []float64 {
	var v []float64
	for x := range set {
		v = append(v, x)
	}
	sort.Float64s(v)
	return v
}

// runCompare reports, per workload and end-to-end metric, each side's
// median and quartiles and whether B is within the metric's bound of
// A. A metric whose own spread (quartile distance over median) on
// either side exceeds its bound is unresolved: the runs cannot tell a
// change of that size from noise.
func runCompare(w io.Writer, boundsPath, pathA, pathB string) error {
	spec, err := readSpec(boundsPath)
	if err != nil {
		return err
	}
	a, aTraced, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, bTraced, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1/median/q3 (n)\tB q1/median/q3 (n)\tchange\tbound\tverdict")
	for _, name := range sortedKeys(a) {
		ra, rb := a[name], b[name]
		if len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d runs\tno runs\t\t\tmissing\n", name, len(ra))
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "agree"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, m.Unit, a1, a2, a3, len(va), b1, b2, b3, len(vb), 100*change, 100*m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	compareEvents(w, aTraced, bTraced)
	return nil
}

func values(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
