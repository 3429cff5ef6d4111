// Command perf measures the wall-clock (host time, not virtual time)
// cost of figure-scale simulator runs and writes a BENCH_*.json report,
// so the repository carries a perf trajectory across PRs.
//
// Usage:
//
//	go run ./cmd/perf -out BENCH_PR1.json [-baseline old.json] [-case regexp]
//	go run ./cmd/perf -check -baseline BENCH_PR1.json [-case regexp]
//	go run ./cmd/perf -sweep coll,topo,scale [-tuning policy=cost,...] -out BENCH_PR4.json
//	go run ./cmd/perf -sweep noise [-noiseseed 42] -out BENCH_PR9.json
//	go run ./cmd/perf -sweep scale -scalemax 8192 [-cpuprofile cpu.pprof]
//	go run ./cmd/perf -spec query.json
//	go run ./cmd/perf -collective allgather -shape 64x24 -sizes 64,4096
//
// The last two forms are query mode: instead of benchmarking the
// simulator, perf executes one declarative spec.Query — from a JSON
// file (-spec) or assembled from flags (-collective, -shape, -sizes,
// -iters, -fold plus the shared -machine, -engine, -tuning) — and
// prints the spec.Result as JSON. The same Query posted to cmd/serverd
// returns a bit-identical result; with -engine both, query mode has the
// bench referee run both execution backends and fails, naming the path
// and the size, unless their virtual times agree exactly.
//
// With -baseline, the old report's numbers are embedded alongside the
// new ones and per-case ns/op speedups are computed. With -check, the
// run becomes a CI perf-regression gate: it exits non-zero when any
// case is more than -maxslow times slower than the baseline (generous,
// for noisy CI hosts) or exceeds the strict allocs/op ceiling
// (allocations are deterministic, so they barely get slack).
//
// -sweep selects extra report dimensions (comma-separated, or "all"):
//
//	coll     the collective selection engine's algorithm choices and
//	         crossover points per message size
//	topo     the multi-level topology dimension (levels x ppn)
//	scale    the scale-out dimension: size-only allgather/allreduce
//	         spec.Queries up to -scalemax ranks on the -engine
//	         backends, recording ns/op and exact virtual times, with
//	         the engines refereed bit-identical
//	stencil  the process-topology dimension: 4-dim grid halo exchanges
//	         (CartCreate + NeighborAlltoall) per halo width up to
//	         -scalemax ranks
//	noise    the robustness dimension: an allreduce ladder under seeded
//	         congestion, jitter and stragglers (-noiseseed), refereed
//	         across engines and world-reuse paths
//	tuned    the measured-selection dimension: a congested allreduce
//	         ladder under the table, cost and measured tuning policies,
//	         with the tuning store's persistence round trip and the
//	         warm-path determinism verdict in the loop
//
// -cpuprofile / -memprofile write pprof profiles covering the whole
// run (cases plus sweeps), for digging into control-plane hot spots.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	out := flag.String("out", "", "write the JSON report to this path")
	baselinePath := flag.String("baseline", "", "compare against a previous report")
	caseRe := flag.String("case", "", "only run cases matching this regexp")
	check := flag.Bool("check", false, "fail (exit 1) on regression vs -baseline")
	maxSlow := flag.Float64("maxslow", 3.0, "-check: max allowed ns/op slowdown factor")
	allocSlack := flag.Float64("allocslack", 1.10, "-check: allocs/op ceiling factor over baseline")
	sweep := flag.String("sweep", "", "extra sweep dimensions: coll,topo,scale,stencil,noise,tuned or all")
	scaleMax := flag.Int("scalemax", 65536, "scale sweep: largest rank count to run")
	noiseSeed := flag.Int64("noiseseed", 42, "noise sweep: seed keying every noisy level")
	engineSpec := flag.String("engine", "both",
		"scale sweep execution backend: goroutine, event or both")
	tuningSpec := flag.String("tuning", "policy=cost",
		"coll tuning spec for the sweep (see REPRO_COLL_TUNING)")
	machine := flag.String("machine", "hazelhen-cray", "machine profile for the sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path")
	specPath := flag.String("spec", "", "query mode: run the spec.Query in this JSON file")
	collective := flag.String("collective", "", "query mode: collective to simulate (enables query mode)")
	shape := flag.String("shape", "4x8", "query mode: topology as NODESxPPN")
	sizesSpec := flag.String("sizes", "1024", "query mode: comma-separated size ladder in bytes")
	iters := flag.Int("iters", 1, "query mode: operations per ladder point")
	fold := flag.String("fold", "", "query mode: rank-symmetry folding: auto, off or a unit")
	flag.Parse()

	if *specPath != "" || *collective != "" {
		if err := runQueryMode(*specPath, *collective, *shape, *sizesSpec,
			*machine, *engineSpec, *tuningSpec, *fold, *iters, *out); err != nil {
			fatal(err)
		}
		return
	}

	dims, err := parseSweep(*sweep)
	if err != nil {
		fatal(err)
	}

	var re *regexp.Regexp
	if *caseRe != "" {
		if re, err = regexp.Compile(*caseRe); err != nil {
			fatal(err)
		}
	}

	var baseline *bench.WallReport
	if *baselinePath != "" {
		if baseline, err = bench.LoadWallReport(*baselinePath); err != nil {
			fatal(err)
		}
	}
	if *check && baseline == nil {
		fatal(fmt.Errorf("-check needs -baseline"))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() flushes through stopCPUProfile too: a deferred stop
		// would be skipped by os.Exit, truncating the profile exactly
		// when a regression is being investigated.
		stopCPUProfile = func() error {
			stopCPUProfile = func() error { return nil }
			pprof.StopCPUProfile()
			return f.Close()
		}
	}

	rep, err := run(re, baseline)
	if err != nil {
		fatal(err)
	}

	if len(dims) > 0 {
		st, err := spec.ParseTuning(*tuningSpec)
		if err != nil {
			fatal(err)
		}
		tun, err := st.Coll()
		if err != nil {
			fatal(err)
		}
		mk, ok := sim.Profiles()[*machine]
		if !ok {
			fatal(fmt.Errorf("unknown machine %q", *machine))
		}
		if dims["coll"] {
			rep.CollSweep = bench.RunCollSweep(mk(), tun)
			printSweep(rep.CollSweep)
		}
		if dims["topo"] {
			if rep.TopoSweep, err = bench.RunTopoSweep(mk(), tun); err != nil {
				fatal(err)
			}
			printTopoSweep(rep.TopoSweep)
		}
		if dims["scale"] {
			engines, err := parseEngines(*engineSpec)
			if err != nil {
				fatal(err)
			}
			if rep.ScaleSweep, err = bench.RunScaleSweep(*machine, *scaleMax, engines); err != nil {
				fatal(err)
			}
			printScaleSweep(rep.ScaleSweep)
		}
		if dims["stencil"] {
			if rep.StencilSweep, err = bench.RunStencilSweep(mk(), *scaleMax); err != nil {
				fatal(err)
			}
			printStencilSweep(rep.StencilSweep)
		}
		if dims["noise"] {
			if rep.NoiseSweep, err = bench.RunNoiseSweep(*machine, *noiseSeed); err != nil {
				fatal(err)
			}
			printNoiseSweep(rep.NoiseSweep)
		}
		if dims["tuned"] {
			if rep.TunedSweep, err = bench.RunTunedSweep(*machine, *noiseSeed); err != nil {
				fatal(err)
			}
			printTunedSweep(rep.TunedSweep)
		}
	}

	if *out != "" {
		if err := rep.WriteWallReport(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			fatal(err)
		}
	}

	if *check {
		if violations := rep.CheckAgainst(baseline, *maxSlow, *allocSlack); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "perf regression:", v)
			}
			fatal(fmt.Errorf("%d regressions vs %s", len(violations), *baselinePath))
		}
		fmt.Printf("perf check passed vs %s (max slowdown %.1fx, alloc slack %.2fx)\n",
			*baselinePath, *maxSlow, *allocSlack)
	}
	if err := stopCPUProfile(); err != nil {
		fatal(err)
	}
}

// runQueryMode executes one declarative spec.Query — loaded from
// specPath, or assembled from the query-mode flags — and prints the
// spec.Result as indented JSON (to out when given, stdout otherwise).
// A flag-built query with engine "both" is refereed on both backends
// and fails unless every point's virtual time is bit-identical.
func runQueryMode(specPath, collective, shape, sizesSpec, machine, engineSpec, tuningSpec, fold string, iters int, out string) error {
	var q *spec.Query
	if specPath != "" {
		if collective != "" {
			return fmt.Errorf("-spec and -collective are mutually exclusive")
		}
		data, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		if q, err = spec.Parse(data); err != nil {
			return err
		}
	} else {
		var err error
		if q, err = queryFromFlags(collective, shape, sizesSpec, machine, engineSpec, tuningSpec, fold, iters); err != nil {
			return err
		}
		if engineSpec == "both" {
			// The event backend must reproduce the goroutine backend's
			// virtual times exactly.
			v, err := bench.Referee(q,
				bench.Path{Name: "goroutine", Engine: "goroutine"},
				bench.Path{Name: "event", Engine: "event"})
			if err != nil {
				return err
			}
			if err := v.Err(); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "engines agree bit-identically")
			return printResult(v.Runs[0].Result, out)
		}
	}
	res, err := spec.Run(q)
	if err != nil {
		return err
	}
	return printResult(res, out)
}

// queryFromFlags assembles a Query from the query-mode flag surface.
func queryFromFlags(collective, shape, sizesSpec, machine, engineSpec, tuningSpec, fold string, iters int) (*spec.Query, error) {
	nodes, ppn, ok := strings.Cut(shape, "x")
	if !ok {
		return nil, fmt.Errorf("-shape %q is not NODESxPPN", shape)
	}
	n, err := strconv.Atoi(nodes)
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	p, err := strconv.Atoi(ppn)
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	var sizes []int
	for _, s := range strings.Split(sizesSpec, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-sizes: %w", err)
		}
		sizes = append(sizes, b)
	}
	tun, err := spec.ParseTuning(tuningSpec)
	if err != nil {
		return nil, err
	}
	q := &spec.Query{
		Machine:    machine,
		Topology:   spec.Topology{Nodes: n, PPN: p},
		Collective: collective,
		Sizes:      sizes,
		Iters:      iters,
		Fold:       fold,
		Tuning:     tun,
	}
	if engineSpec != "both" && engineSpec != "" {
		q.Engine = engineSpec
	}
	if err := q.Canonicalize(); err != nil {
		return nil, err
	}
	return q, nil
}

// printResult writes the Result as indented JSON.
func printResult(res *spec.Result, out string) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "" {
		return os.WriteFile(out, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

// parseSweep resolves the -sweep dimension list. The historical bare
// boolean form ("-sweep" with no value) is gone; "all" selects every
// dimension.
func parseSweep(spec string) (map[string]bool, error) {
	dims := map[string]bool{}
	if spec == "" {
		return dims, nil
	}
	if spec == "all" {
		return map[string]bool{"coll": true, "topo": true, "scale": true, "stencil": true, "noise": true, "tuned": true}, nil
	}
	for _, d := range strings.Split(spec, ",") {
		switch d = strings.TrimSpace(d); d {
		case "coll", "topo", "scale", "stencil", "noise", "tuned":
			dims[d] = true
		default:
			return nil, fmt.Errorf("unknown sweep dimension %q (want coll, topo, scale, stencil, noise, tuned or all)", d)
		}
	}
	return dims, nil
}

func run(re *regexp.Regexp, baseline *bench.WallReport) (*bench.WallReport, error) {
	var filter func(string) bool
	if re != nil {
		filter = re.MatchString
	}
	rep, err := bench.RunWallCases(filter)
	if err != nil {
		return nil, err
	}
	if baseline != nil {
		rep.CompareTo(baseline)
	}
	print(rep)
	return rep, nil
}

func print(rep *bench.WallReport) {
	fmt.Printf("%-28s %14s %12s %12s %8s %10s\n",
		"case", "ns/op", "allocs/op", "B/op", "peakG", "virtual_us")
	for _, r := range rep.Results {
		fmt.Printf("%-28s %14.0f %12.0f %12.0f %8d %10.2f\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.PeakGoroutines, r.VirtualUs)
		if s, ok := rep.Speedup[r.Name]; ok {
			fmt.Printf("%-28s %13.2fx vs baseline\n", "", s)
		}
	}
}

func printSweep(s *bench.CollSweepReport) {
	fmt.Printf("\ncoll-sweep (%s, policy %s): %d points, crossovers:\n",
		s.Model, s.Policy, len(s.Points))
	for _, x := range s.Crossovers {
		fmt.Printf("  %-10s n=%-3d %s: %s -> %s at %d B\n",
			x.Collective, x.CommSize, x.Hop, x.From, x.To, x.AtBytes)
	}
}

func printTopoSweep(s *bench.TopoSweepReport) {
	fmt.Printf("\ntopo-sweep (%s, policy %s): %d points (levels x ppn):\n",
		s.Model, s.Policy, len(s.Points))
	for _, p := range s.Points {
		fmt.Printf("  %-18s %dx%-3d %8dB  hier %10.2f us  hybrid(%s) %10.2f us\n",
			p.Stack, p.Nodes, p.PPN, p.Bytes, p.HierUs, p.SharedLevel, p.HybridUs)
	}
}

// parseEngines resolves the -engine flag into the backend list handed
// to the scale sweep ("both" runs goroutine then event, letting the
// sweep cross-check their virtual timelines).
func parseEngines(spec string) ([]sim.Engine, error) {
	if spec == "" || spec == "both" {
		return []sim.Engine{sim.EngineGoroutine, sim.EngineEvent}, nil
	}
	e, err := sim.ParseEngine(spec)
	if err != nil {
		return nil, fmt.Errorf("-engine: %w (or \"both\")", err)
	}
	return []sim.Engine{e}, nil
}

func printScaleSweep(s *bench.ScaleSweepReport) {
	fmt.Printf("\nscale-sweep (%s, up to %d ranks):\n", s.Model, s.MaxRanks)
	for _, p := range s.Points {
		fold := ""
		if p.FoldUnit > 0 {
			fold = fmt.Sprintf(" fold %d", p.FoldUnit)
		}
		fmt.Printf("  %-10s %5dx%-3d %7d ranks %-9s %10.1f ms/op  virtual %10.2f us%s\n",
			p.Coll, p.Nodes, p.PPN, p.Ranks, p.Engine, p.NsPerOp/1e6, p.VirtualUs, fold)
	}
}

func printStencilSweep(s *bench.StencilSweepReport) {
	fmt.Printf("\nstencil-sweep (%s, up to %d ranks):\n", s.Model, s.MaxRanks)
	for _, p := range s.Points {
		fmt.Printf("  %-12s %7d ranks  halo %4dB %10.1f ms/op  setup %7.0f ms  peakG %7d  virtual %10.2f us\n",
			p.Dims, p.Ranks, p.HaloBytes, p.NsPerOp/1e6, p.SetupNs/1e6, p.PeakGoroutines, p.VirtualUs)
	}
}

func printNoiseSweep(s *bench.NoiseSweepReport) {
	fmt.Printf("\nnoise-sweep (%s, %s %dx%d, seed %d, all paths bit-identical %v):\n",
		s.Model, s.Collective, s.Nodes, s.PPN, s.Seed, s.BitIdentical)
	for _, p := range s.Points {
		fmt.Printf("  %-18s %8dB  virtual %10.2f us  slowdown %5.2fx  bit-identical %v\n",
			p.Label, p.Bytes, p.VirtualUs, p.SlowdownVsClean, p.BitIdentical)
	}
}

func printTunedSweep(s *bench.TunedSweepReport) {
	fmt.Printf("\ntuned-sweep (%s, %s %dx%d, seed %d, congestion net=%g, %d measurements, beats cost on %d points, bit-identical %v):\n",
		s.Model, s.Collective, s.Nodes, s.PPN, s.Seed, s.CongestionNet, s.Measurements, s.BeatsCost, s.BitIdentical)
	for _, p := range s.Points {
		mark := ""
		if p.MeasuredBeatsCost {
			mark = "  << measured wins"
		}
		fmt.Printf("  %8dB  table %12d ps  cost %12d ps (%s)  measured %12d ps (%s)%s\n",
			p.Bytes, p.TablePs, p.CostPs, p.CostPick, p.MeasuredPs, p.MeasuredPick, mark)
	}
}

// stopCPUProfile flushes and closes the CPU profile (no-op until
// -cpuprofile installs the real one, and after the first call); every
// exit path must call it and report its error.
var stopCPUProfile = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	if err := stopCPUProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
	}
	os.Exit(1)
}
