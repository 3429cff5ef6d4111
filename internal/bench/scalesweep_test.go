package bench

import "testing"

func TestScaleSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank sweep in -short mode")
	}
	rep, err := RunScaleSweep("hazelhen-cray", 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("got %d points for maxRanks=4096, want 4 (allgather+allreduce at 64x64 on both engines)", len(rep.Points))
	}
	// The 4096-rank virtual makespans of BENCH_PR7.json, to the
	// picosecond, on both engines.
	wantPs := map[string]int64{"allgather": 127696960, "allreduce": 38587080}
	for _, p := range rep.Points {
		if p.Ranks != 4096 || p.Bytes != 8 || p.Iters != 2 {
			t.Errorf("%s/%s: %d ranks, %d B, %d iters; want 4096, 8, 2", p.Coll, p.Engine, p.Ranks, p.Bytes, p.Iters)
		}
		if p.NsPerOp <= 0 || p.VirtualUs <= 0 {
			t.Errorf("%s/%s: empty measurement (%v ns/op, %v virtual us)", p.Coll, p.Engine, p.NsPerOp, p.VirtualUs)
		}
		if p.VirtualPs != wantPs[p.Coll] {
			t.Errorf("%s/%s: virtual %d ps, want %d ps", p.Coll, p.Engine, p.VirtualPs, wantPs[p.Coll])
		}
		switch p.Engine {
		case "goroutine":
			if p.FoldUnit != 0 {
				t.Errorf("%s/%s: goroutine point folded (unit %d)", p.Coll, p.Engine, p.FoldUnit)
			}
		case "event":
			// Both sweep workloads are fold-symmetric on the uniform
			// 64-ppn ladder, so fold "auto" must fold the event points
			// by a whole node.
			if p.FoldUnit != 64 {
				t.Errorf("%s/%s: fold unit %d, want 64", p.Coll, p.Engine, p.FoldUnit)
			}
		default:
			t.Errorf("%s: unknown engine %q", p.Coll, p.Engine)
		}
	}
}

func TestScaleShapesRespectCap(t *testing.T) {
	for _, s := range scaleShapes(8192) {
		if s[0]*s[1] > 8192 {
			t.Errorf("shape %dx%d exceeds the 8192-rank cap", s[0], s[1])
		}
	}
	full := scaleShapes(1 << 20)
	last := full[len(full)-1]
	if last[0]*last[1] != 1<<20 {
		t.Errorf("full ladder tops out at %d ranks, want 1048576", last[0]*last[1])
	}
}
