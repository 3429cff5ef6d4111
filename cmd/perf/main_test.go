package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/spec"
)

func TestQueryModeBothEnginesRefereed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	if err := runQueryMode("", "allreduce", "4x4", "64,4096", "laptop", "both", "policy=cost", "", 2, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res spec.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	// The reference path's result is the one printed.
	if res.Engine != "goroutine" || res.Iters != 2 || len(res.Points) != 2 || res.Points[1].Bytes != 4096 {
		t.Errorf("unexpected result: engine %q, iters %d, points %+v", res.Engine, res.Iters, res.Points)
	}
}

func TestParseSweep(t *testing.T) {
	all, err := parseSweep("all")
	if err != nil || len(all) != 6 || all["service"] {
		t.Errorf("all = %v, %v; want the six dimensions without service", all, err)
	}
	if _, err := parseSweep("scale,service"); err == nil {
		t.Error("the retired service dimension was accepted")
	}
}
