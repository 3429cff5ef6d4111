package bench

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestRefereeFlagsExactlyTheDifferingPoint(t *testing.T) {
	q := &spec.Query{
		Machine:    "laptop",
		Topology:   spec.Topology{Nodes: 4, PPN: 4},
		Collective: "allreduce",
		Sizes:      []int{65536, 64, 4096},
	}
	pool := spec.NewWorldPool(spec.PoolConfig{})
	defer pool.Close()
	v, err := Referee(q,
		Path{Name: "goroutine"},
		Path{Name: "event", Engine: "event"},
		Path{Name: "pooled", Exec: &spec.Exec{Pool: pool}})
	if err != nil {
		t.Fatal(err)
	}
	if q.Engine != "" || q.Sizes[0] != 65536 {
		t.Errorf("referee modified the caller's query: engine %q, sizes %v", q.Engine, q.Sizes)
	}
	if err := v.Err(); err != nil || len(v.Agree) != 3 {
		t.Fatalf("real paths: err %v, %d points", err, len(v.Agree))
	}
	if got := v.Runs[1].Result.Engine; got != "event" {
		t.Errorf("event path ran on %q", got)
	}

	// One challenger's point moves by a picosecond: exactly that point
	// is flagged, and the error names the path and the size.
	v.Runs[1].Result.Points[1].VirtualPs++
	v = judge(v.Runs)
	if want := []bool{true, false, true}; v.Agree[0] != want[0] || v.Agree[1] != want[1] || v.Agree[2] != want[2] {
		t.Errorf("agree = %v, want %v", v.Agree, want)
	}
	if len(v.Mismatches) != 1 || v.Mismatches[0].Path != "event" || v.Mismatches[0].Bytes != 4096 {
		t.Fatalf("mismatches = %+v, want one for event at 4096 B", v.Mismatches)
	}
	for _, err := range []error{v.Err(), scalePointsErr(v)} {
		if err == nil || !strings.Contains(err.Error(), "path event") || !strings.Contains(err.Error(), "at 4096 B") {
			t.Errorf("error %v does not name the path and the size", err)
		}
	}
}

// scalePointsErr is the scale sweep's verdict conversion, error only.
func scalePointsErr(v *Verdict) error {
	_, err := scalePoints(v, 4, 4)
	return err
}

func TestRefereeNeedsAPath(t *testing.T) {
	if _, err := Referee(&spec.Query{Machine: "laptop"}); err == nil {
		t.Fatal("referee with no paths succeeded")
	}
}
