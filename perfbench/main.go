// Command perfbench is the repository's benchmark: three seeded
// workloads (paper_figs, event_scale, service_mix) timed end to end
// from outside the program, with a separate traced run for per-layer
// numbers. See README.md for the workloads, the metrics and how to
// compare two result sets.
//
//	perfbench --workload paper_figs --seed 1 --seconds 30 --trace 0
//	perfbench --compare parent.jsonl change.jsonl
//
// Each run executes its workload in fresh child processes (this binary
// with --child), so process-wide caches and the RSS high-water mark
// never carry over from another workload. The last stdout line is one
// JSON object: {"correct","attempted","failed","metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// setupProbes is how many extra children only set up, so setup_s is a
// median rather than a single process start.
const setupProbes = 9

func main() {
	workloadName := flag.String("workload", "", "paper_figs, event_scale or service_mix")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the default seed is refereed against golden.json")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	results := flag.String("results", "", "append this run's result record to a JSON-lines file (input of --compare)")
	compare := flag.Bool("compare", false, "compare two --results files: perfbench --compare A B")
	writeGolden := flag.String("write-golden", "", "recompute the default seed's referee values into this file")
	child := flag.Bool("child", false, "internal: run the workload in this process")
	setupOnly := flag.Bool("setup-only", false, "internal: with --child, exit after set-up")
	part := flag.Int("part", 0, "internal: with --child, which child of the run this is")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare takes two result files")
			break
		}
		err = runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *writeGolden != "":
		err = runWriteGolden(*writeGolden)
	case *child:
		err = runChild(*workloadName, *seed, *seconds, *trace == 1, *setupOnly, *part)
	default:
		var ok bool
		ok, err = runParent(*workloadName, *seed, *seconds, *trace == 1, *results)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// childRun is one child process's outcome as the parent saw it.
type childRun struct {
	setup  float64 // seconds from spawn to READY
	report *childReport
}

// spawn runs this binary as a child for the workload and waits for it.
func spawn(name string, seed int64, seconds float64, traced, setupOnly bool, part int) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--part", fmt.Sprint(part)}
	if traced {
		args = append(args, "--trace", "1")
	}
	if setupOnly {
		args = append(args, "--setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &childRun{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "READY":
			run.setup = time.Since(start).Seconds()
		case strings.HasPrefix(line, "REPORT "):
			run.report = &childReport{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "REPORT ")), run.report); err != nil {
				run.report = nil
			}
		}
	}
	io.Copy(io.Discard, stdout) //nolint:errcheck // drain before Wait
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child: %w", name, err)
	}
	if run.setup == 0 || (!setupOnly && run.report == nil) {
		return nil, fmt.Errorf("%s child ended without a report", name)
	}
	return run, nil
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last stdout line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one --results line: the output plus what identifies it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Digest   string `json:"digest"`
	output
}

// runParts is how many fresh child processes one run is split into.
// Each measures an equal share of --seconds and the run reports the
// median of their metrics, so a burst of host noise in one child does
// not carry the run. A paper_figs pass takes about 8 s, so that run
// stays in one child; every event_scale child starts with its caches
// cold, so five children give five cold samples per shape.
var runParts = map[string]int{"paper_figs": 1, "event_scale": 5, "service_mix": 3}

// p50Metrics are the medians over op populations, and their scale
// from milliseconds.
var p50Metrics = []struct {
	metric, pop string
	scale       float64
}{
	{"op_p50_ms", "all", 1},
	{"cold_op_p50_ms", "cold", 1},
	{"warm_op_p50_ms", "warm", 1},
	{"unfolded_op_p50_ms", "unfolded", 1},
	{"hit_p50_us", "hit", 1000},
	{"miss_p50_ms", "miss", 1},
}

// keyMedian merges one population across children and takes its
// median: each key's latency is the median of its per-child medians
// and weighs as many samples as it had, and the result is the weighted
// median over keys. Reducing a key's repeats to their median first
// keeps one slow sample of a rarely seen key (a cold op runs once per
// child) from moving the result.
func keyMedian(parts []map[string]keyStat) float64 {
	perKey := map[string][]float64{}
	weight := map[string]float64{}
	for _, p := range parts {
		for k, st := range p {
			perKey[k] = append(perKey[k], st.Median)
			weight[k] += float64(st.N)
		}
	}
	var vals, ws []float64
	for _, k := range sortedKeys(perKey) {
		vals = append(vals, median(perKey[k]))
		ws = append(ws, weight[k])
	}
	return weightedMedian(vals, ws)
}

// measure runs the workload in its fresh children, one after another,
// and merges their reports: metrics are the median across children,
// counts are summed. It also returns each child's set-up time.
func measure(name string, seed int64, seconds float64, traced bool) (*childReport, []float64, error) {
	parts := runParts[name]
	merged := &childReport{Metrics: map[string]float64{}, Samples: map[string]int{}}
	var setups, opsPerS []float64
	metrics := map[string][]float64{}
	pops := map[string][]map[string]keyStat{}
	for part := range parts {
		run, err := spawn(name, seed, seconds/float64(parts), traced, false, part)
		if err != nil {
			return nil, nil, err
		}
		rep := run.report
		setups = append(setups, run.setup)
		opsPerS = append(opsPerS, rep.OpsPerS)
		for k, v := range rep.Metrics {
			metrics[k] = append(metrics[k], v)
		}
		for k, v := range rep.Pops {
			pops[k] = append(pops[k], v)
		}
		for k, v := range rep.Samples {
			merged.Samples[k] += v
		}
		merged.Digest = rep.Digest
		merged.Attempted += rep.Attempted
		merged.Failed += rep.Failed
		merged.Failures = append(merged.Failures, rep.Failures...)
		for _, k := range sortedKeys(rep.Tails) {
			t := rep.Tails[k]
			fmt.Printf("perfbench: part %d: %s = p%.0f of %d samples\n", part, k, t.Percentile, t.Samples)
		}
	}
	for k, v := range metrics {
		merged.Metrics[k] = median(v)
	}
	if !traced {
		for _, p := range p50Metrics {
			merged.Metrics[p.metric] = p.scale * keyMedian(pops[p.pop])
		}
	}
	merged.OpsPerS = median(opsPerS)
	return merged, setups, nil
}

func runParent(name string, seed int64, seconds float64, traced bool, resultsPath string) (bool, error) {
	if _, ok := runParts[name]; !ok {
		return false, fmt.Errorf("unknown workload %q (want paper_figs, event_scale or service_mix)", name)
	}
	if seconds <= 0 {
		return false, errors.New("--seconds must be positive")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	out := output{Metrics: map[string]metric{}}
	var rep *childReport
	if !traced {
		var setups []float64
		for range setupProbes {
			run, err := spawn(name, seed, seconds, false, true, 0)
			if err != nil {
				return false, err
			}
			setups = append(setups, run.setup)
		}
		r, more, err := measure(name, seed, seconds, false)
		if err != nil {
			return false, err
		}
		rep, setups = r, append(setups, more...)
		rep.Metrics["setup_s"] = median(setups)
		for _, m := range spec.EndToEnd {
			out.Metrics[m.Name] = metric{rep.Metrics[m.Name], m.Unit}
		}
		fmt.Printf("perfbench: %s seed=%d digest=%s ops=%d failed_ops=%.2f%% setup samples=%d\n",
			name, seed, rep.Digest, rep.Attempted, pct(rep.Failed, rep.Attempted), len(setups))
		fmt.Printf("perfbench: samples %v\n", rep.Samples)
	} else {
		// The overhead baseline is an untraced run of the same length.
		base, _, err := measure(name, seed, seconds, false)
		if err != nil {
			return false, err
		}
		if rep, _, err = measure(name, seed, seconds, true); err != nil {
			return false, err
		}
		overhead := 100 * (base.OpsPerS - rep.OpsPerS) / base.OpsPerS
		rep.Metrics["trace.overhead_pct"] = overhead
		rep.Failed += base.Failed
		rep.Attempted += base.Attempted
		rep.Failures = append(rep.Failures, base.Failures...)
		for _, m := range spec.PerLayer {
			out.Metrics[m.Name] = metric{rep.Metrics[m.Name], m.Unit}
		}
		fmt.Printf("perfbench: %s seed=%d digest=%s traced ops/s=%.2f untraced ops/s=%.2f overhead=%.1f%%\n",
			name, seed, rep.Digest, rep.OpsPerS, base.OpsPerS, overhead)
	}
	for _, f := range rep.Failures {
		fmt.Printf("perfbench: FAILED %s\n", f)
	}
	out.Attempted, out.Failed = rep.Attempted, rep.Failed
	out.Correct = rep.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	if resultsPath != "" {
		rec, err := json.Marshal(record{Workload: name, Seed: seed, Trace: traced, Digest: rep.Digest, output: out})
		if err != nil {
			return false, err
		}
		f, err := os.OpenFile(resultsPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return false, err
		}
		if _, err := fmt.Fprintf(f, "%s\n", rec); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
	}
	fmt.Println(string(line))
	return out.Correct, nil
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runWriteGolden recomputes the default seed's referee value for every
// key of every workload's op list.
func runWriteGolden(path string) error {
	g := goldenFile{Seed: defaultSeed, Workloads: map[string]goldenValues{}}
	for _, name := range []string{"paper_figs", "event_scale", "service_mix"} {
		w, err := newWorkload(name, defaultSeed, nil)
		if err != nil {
			return err
		}
		gv := goldenValues{Digest: w.digest(), Values: map[string]string{}}
		for i := range w.size() {
			key := w.key(i)
			if _, done := gv.Values[key]; done {
				continue
			}
			v, err := w.refer(i)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, key, err)
			}
			gv.Values[key] = v
		}
		g.Workloads[name] = gv
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d golden values\n", name, len(gv.Values))
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
