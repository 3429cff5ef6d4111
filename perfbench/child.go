package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// workload is one generated op list and the code that runs it. Ops are
// indexed 0..size()-1 and the timed loop cycles through them.
type workload interface {
	size() int
	// key is op i's result identity: ops with equal keys must give
	// equal results.
	key(i int) string
	clients() int
	digest() string
	// start readies the workload; it is part of the timed set-up.
	start() error
	// exec runs op i once; seq numbers the execution for its spans.
	exec(i, seq int, tr *tracer) result
	// refer computes op i's referee value, outside the timed phase.
	refer(i int) (string, error)
	// layers adds the workload's own per-layer counters to m.
	layers(m map[string]float64)
	close()
}

// result is the outcome of one op.
type result struct {
	check string // the value the referee compares
	// class is "miss" when the op's key ran for the first time in the
	// process (or the daemon answered X-Cache: miss), "hit" on a
	// repeat (X-Cache: hit), "" for service requests that are neither.
	class  string
	folded bool // a fold unit > 0 executed the op
	sim    bool // the op simulated (a daemon cache hit does not)
	// Traced runs only: simulated events and the host time of the run
	// that produced them.
	events, runNs int64
	err           error
}

// sample is one executed op.
type sample struct {
	result
	idx, seq int
	ms       float64
	end      float64 // seconds from the start of the timed phase
	failed   bool
}

// keySet classifies keys as first seen ("miss") or repeated ("hit").
type keySet map[string]bool

func (s keySet) classify(key string) string {
	if s[key] {
		return "hit"
	}
	s[key] = true
	return "miss"
}

func newWorkload(name string, seed int64, tr *tracer) (workload, error) {
	switch name {
	case "paper_figs":
		return newPaper(seed), nil
	case "event_scale":
		return newEvent(seed), nil
	case "service_mix":
		return newService(seed, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper_figs, event_scale or service_mix)", name)
}

// childReport is what a child process hands its parent.
type childReport struct {
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	OpsPerS   float64            `json:"ops_per_s"`
	Metrics   map[string]float64 `json:"metrics"`
	Tails     map[string]tail    `json:"tails,omitempty"`
	// Pops holds each latency population per key (untraced runs).
	Pops    map[string]map[string]keyStat `json:"pops,omitempty"`
	Samples map[string]int                `json:"samples"`
}

// runChild executes one workload run in this process: set-up, READY,
// the timed phase, the referee, then one REPORT line on stdout.
func runChild(name string, seed int64, seconds float64, traced, setupOnly bool, part int) error {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w, err := newWorkload(name, seed, tr)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.start(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println("READY")
	if setupOnly {
		return nil
	}

	samples, elapsed := timedLoop(w, seconds, tr)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep := &childReport{Digest: w.digest(), Attempted: len(samples), Samples: map[string]int{}}
	rep.OpsPerS = float64(len(samples)) / elapsed
	referee(w, name, seed, samples, rep)

	if traced {
		rep.Metrics = layerMetrics(tr, samples)
		w.layers(rep.Metrics)
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d-part%d.jsonl.gz", name, seed, part))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	} else {
		whole, wholeElapsed := wholePasses(samples, w.size(), elapsed)
		endToEnd(w, whole, wholeElapsed, rss, rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("REPORT %s\n", data)
	return nil
}

// timedLoop runs ops back to back on w.clients() closed-loop clients
// until seconds have passed; an op under way when time runs out
// finishes and counts.
func timedLoop(w workload, seconds float64, tr *tracer) ([]sample, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for range w.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				seq := int(next.Add(1) - 1)
				i := seq % w.size()
				t0 := time.Now()
				r := w.exec(i, seq, tr)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				mine = append(mine, sample{result: r, idx: i, seq: seq, ms: ms, end: time.Since(start).Seconds()})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	return all, elapsed
}

// wholePasses cuts samples (ordered by seq) back to the complete passes
// over the op list and returns them with the time the last of them
// ended. Statistics over whole passes weigh every op of the list alike,
// whichever op the time budget happened to stop at. With no complete
// pass, every sample counts.
func wholePasses(samples []sample, size int, elapsed float64) ([]sample, float64) {
	k := len(samples) / size
	if k == 0 {
		return samples, elapsed
	}
	whole := samples[:k*size]
	end := 0.0
	for _, s := range whole {
		end = max(end, s.end)
	}
	return whole, end
}

// spanDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs in.
var spanDir = filepath.Join(".bench_build", "perfbench")

//go:embed golden.json
var goldenJSON []byte

// DefaultSeed is the seed whose results golden.json pins.
const defaultSeed = 1

type goldenFile struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]goldenValues `json:"workloads"`
}

type goldenValues struct {
	Digest string            `json:"digest"`
	Values map[string]string `json:"values"`
}

// referee checks every sample: each key must give one result across
// the run, and that result must equal the golden value (default seed)
// or the referee path's (any other seed), computed after the timed
// phase. Every mismatching or failed sample counts as failed.
func referee(w workload, name string, seed int64, samples []sample, rep *childReport) {
	fail := func(s *sample, msg string) {
		s.failed = true
		rep.Failed++
		if len(rep.Failures) < 10 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("op %d (%s): %s", s.seq, w.key(s.idx), msg))
		}
	}
	var golden *goldenValues
	if seed == defaultSeed {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			rep.Failed = len(samples)
			rep.Failures = append(rep.Failures, "golden.json: "+err.Error())
			return
		}
		gv, ok := g.Workloads[name]
		if !ok || g.Seed != seed || gv.Digest != w.digest() {
			rep.Failed = len(samples)
			rep.Failures = append(rep.Failures, fmt.Sprintf("golden.json does not pin this op list (digest %s); regenerate it with -write-golden", w.digest()))
			return
		}
		golden = &gv
	}
	expect := map[string]string{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			fail(s, s.err.Error())
			continue
		}
		key := w.key(s.idx)
		want, ok := expect[key]
		if !ok {
			if golden != nil {
				if want, ok = golden.Values[key]; !ok {
					fail(s, "no golden value")
					continue
				}
			} else {
				v, err := w.refer(s.idx)
				if err != nil {
					fail(s, "referee: "+err.Error())
					continue
				}
				want = v
			}
			expect[key] = want
		}
		if s.check != want {
			fail(s, fmt.Sprintf("got %s, referee %s", s.check, want))
		}
	}
}

// keyStat is one key's latencies within one population of ops.
type keyStat struct {
	Median float64 `json:"m"`
	N      int     `json:"n"`
}

// endToEnd reduces the untraced samples. The p50 metrics are taken over
// populations of ops, defined alike for every workload (see README.md):
// a "miss" is an op whose key ran for the first time in the process, or
// a daemon cache miss; cold and warm ops are misses and hits restricted
// to folded ops where the workload has any. Each population is reported
// per key (median latency and count), so the parent can merge children
// before taking medians. Tails, throughput and peak RSS are per child.
func endToEnd(w workload, samples []sample, elapsed, rssMiB float64, rep *childReport) {
	anyFolded := false
	for _, s := range samples {
		anyFolded = anyFolded || s.folded
	}
	pops := map[string]func(s sample) bool{
		"all":      func(sample) bool { return true },
		"hit":      func(s sample) bool { return s.class == "hit" },
		"miss":     func(s sample) bool { return s.class == "miss" },
		"cold":     func(s sample) bool { return s.class == "miss" && s.folded == anyFolded },
		"warm":     func(s sample) bool { return s.class == "hit" && s.folded == anyFolded },
		"unfolded": func(s sample) bool { return s.sim && !s.folded },
	}
	rep.Pops = map[string]map[string]keyStat{}
	pooled := map[string][]float64{}
	for name, keep := range pops {
		byKey := map[string][]float64{}
		for _, s := range samples {
			if !s.failed && keep(s) {
				byKey[w.key(s.idx)] = append(byKey[w.key(s.idx)], s.ms)
				pooled[name] = append(pooled[name], s.ms)
			}
		}
		stats := map[string]keyStat{}
		for k, v := range byKey {
			stats[k] = keyStat{median(v), len(v)}
		}
		rep.Pops[name] = stats
		rep.Samples[name] = len(pooled[name])
	}
	opTail, missTail := tailOf(pooled["all"]), tailOf(pooled["miss"])
	rep.Metrics = map[string]float64{
		"ops_per_s":    float64(len(samples)) / elapsed,
		"op_tail_ms":   opTail.Value,
		"miss_tail_ms": missTail.Value,
		"peak_rss_mib": rssMiB,
	}
	rep.Tails = map[string]tail{"op_tail_ms": opTail, "miss_tail_ms": missTail}
}

// spanMetrics maps span names to per-layer metrics and their scale
// from nanoseconds.
var spanMetrics = []struct {
	span, metric string
	scale        float64
}{
	{"sim.topology_build", "sim.topology_build_ms", 1e-6},
	{"mpi.world_build", "mpi.world_build_ms", 1e-6},
	{"mpi.close", "mpi.close_ms", 1e-6},
	{"mpi.run", "mpi.run_self_ms", 1e-6},
	{"coll.geometry_cold", "coll.geometry_cold_ms", 1e-6},
	{"coll.geometry_warm", "coll.geometry_warm_ms", 1e-6},
	{"coll.allgather", "coll.allgather_ms", 1e-6},
	{"coll.bcast", "coll.bcast_ms", 1e-6},
	{"coll.price", "coll.price_us", 1e-3},
	{"hybrid.setup", "hybrid.setup_ms", 1e-6},
	{"hybrid.allgather", "hybrid.allgather_ms", 1e-6},
	{"hybrid.bcast", "hybrid.bcast_ms", 1e-6},
	{"summa.run", "summa.run_ms", 1e-6},
	{"bpmf.run", "bpmf.run_ms", 1e-6},
	{"spec.parse", "spec.parse_us", 1e-3},
	{"spec.canon", "spec.canon_us", 1e-3},
	{"spec.run", "spec.run_ms", 1e-6},
	{"server.serve.hit", "server.serve_us.hit", 1e-3},
	{"server.serve.miss", "server.serve_us.miss", 1e-3},
	{"server.roundtrip", "server.transport_us", 1e-3},
}

// eventsPrefix bounds the ops whose simulated events a traced run
// counts: the first executions of keys among the leading eventsPrefix
// ops, few enough that every run reaches them, so mpi.events_per_op
// repeats exactly between runs of one seed. Recording every event takes
// a global lock, so the rest of the traced run goes without.
const eventsPrefix = 16

// eventTracer returns a recording sim.Tracer for the ops whose events
// are counted, nil for the others.
func eventTracer(tr *tracer, seq int, class string) *sim.Tracer {
	if tr == nil || seq >= eventsPrefix || class != "miss" {
		return nil
	}
	return sim.NewTracer()
}

func eventCount(t *sim.Tracer) int64 {
	if t == nil {
		return 0
	}
	return int64(t.Stats().Events)
}

// layerMetrics reduces the spans to per-layer metrics: for each layer,
// the median over ops of the layer's self time in the op. A layer the
// workload never calls is left out, and the parent prints it as 0.
func layerMetrics(tr *tracer, samples []sample) map[string]float64 {
	m := map[string]float64{}
	perOp := tr.selfTimes()
	for _, sm := range spanMetrics {
		var v []float64
		for _, layers := range perOp {
			if ns, ok := layers[sm.span]; ok {
				v = append(v, float64(ns)*sm.scale)
			}
		}
		if len(v) > 0 {
			m[sm.metric] = median(v)
		}
	}
	// Events were counted on the first executions among the leading
	// ops; the host time per event pairs each of those keys' event count
	// with the median run time of its later executions, which ran
	// without the event tracer's lock.
	later := map[int][]float64{}
	for _, s := range samples {
		if s.events == 0 && s.runNs > 0 {
			later[s.idx] = append(later[s.idx], float64(s.runNs))
		}
	}
	var events, counted, pairedEvents, pairedNs, simOps, folded float64
	for _, s := range samples {
		if s.events > 0 {
			events += float64(s.events)
			counted++
			if ns := later[s.idx]; len(ns) > 0 {
				pairedEvents += float64(s.events)
				pairedNs += median(ns)
			}
		}
		if s.sim {
			simOps++
			if s.folded {
				folded++
			}
		}
	}
	if counted > 0 {
		m["mpi.events_per_op"] = events / counted
	}
	if pairedEvents > 0 {
		m["mpi.host_ns_per_event"] = pairedNs / pairedEvents
	}
	if simOps > 0 {
		m["mpi.folded_share"] = folded / simOps
	}
	return m
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
