package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tune"
)

// The tuned sweep is the measured-selection dimension of cmd/perf
// -sweep: a congested allreduce ladder executed under all three tuning
// policies — the paper's static table, the LogGP cost prior, and the
// measured policy backed by the persisted tuning store. The cost
// model prices a clean network, so under link congestion its
// recdbl/rabenseifner crossover sits below where the measured race
// puts it; the ladder deliberately straddles both crossovers so the
// report shows the measured policy strictly beating the cost policy's
// pick on the points between them. The full store lifecycle is in the
// loop (cold measure -> save -> reload -> warm serve), and the warm
// query is refereed across both engines, all world-reuse paths and a
// full rerun: the sweep doubles as the determinism gate for the
// measured policy.

// TunedPoint is one ladder size measured under all three policies.
type TunedPoint struct {
	// Bytes is the ladder entry (total allreduce vector).
	Bytes int `json:"bytes"`
	// TablePs, CostPs and MeasuredPs are the exact virtual makespans
	// under the three tuning policies (Iters operations each).
	TablePs    int64 `json:"table_ps"`
	CostPs     int64 `json:"cost_ps"`
	MeasuredPs int64 `json:"measured_ps"`
	// CostPick and MeasuredPick name the algorithms the cost prior and
	// the warm tuning store selected at this point.
	CostPick     string `json:"cost_pick"`
	MeasuredPick string `json:"measured_pick"`
	// MeasuredBeatsCost reports MeasuredPs strictly below CostPs: the
	// store's winner outran the clean-model pick under congestion.
	MeasuredBeatsCost bool `json:"measured_beats_cost"`
	// BitIdentical reports that both engines, the per-point referee, a
	// pooled warm re-run and a full rerun against the same store all
	// produced exactly MeasuredPs.
	BitIdentical bool `json:"bit_identical"`
}

// TunedSweepReport is the measured-selection section of a
// BENCH_*.json document.
type TunedSweepReport struct {
	Model      string `json:"model"`
	Collective string `json:"collective"`
	Nodes      int    `json:"nodes"`
	PPN        int    `json:"ppn"`
	Iters      int    `json:"iters"`
	// Seed keys the congestion noise on every execution.
	Seed int64 `json:"seed"`
	// CongestionNet is the network congestion factor the ladder runs
	// under — the regime where the clean cost prior misranks.
	CongestionNet float64 `json:"congestion_net"`
	// WallMs is the host time the whole sweep took.
	WallMs float64 `json:"wall_ms"`
	// StoreEntries and Measurements describe the tuning store after
	// the cold pass: distinct points cached, candidate races run.
	StoreEntries int   `json:"store_entries"`
	Measurements int64 `json:"measurements"`
	// BeatsCost counts the points where the measured policy's virtual
	// time is strictly below the cost policy's.
	BeatsCost int `json:"beats_cost"`
	// BitIdentical is the conjunction over every point — the headline
	// determinism verdict for the measured policy.
	BitIdentical bool         `json:"bit_identical"`
	Points       []TunedPoint `json:"points"`
}

// tunedSweepSizes straddles both allreduce crossovers: the clean cost
// model hands recdbl over to rabenseifner earlier than the congested
// measurement does, so the middle of the ladder is where the measured
// policy wins.
var tunedSweepSizes = []int{4096, 12288, 16384, 20480, 24576, 131072}

// tunedCongestionNet is the network congestion factor of every run.
const tunedCongestionNet = 16

// RunTunedSweep measures the measured-selection dimension on the given
// machine profile: an 8x8 congested allreduce ladder under the table,
// cost and measured policies, with the tuning store's full persistence
// round trip (cold measure, save, reload, warm serve) in the loop and
// the warm results cross-checked for exact agreement across engines,
// world-reuse paths and a rerun.
func RunTunedSweep(machine string, seed int64) (*TunedSweepReport, error) {
	const nodes, ppn, iters = 8, 8, 2
	mkModel, ok := sim.Profiles()[machine]
	if !ok {
		return nil, fmt.Errorf("bench: tuned sweep: unknown machine %q", machine)
	}
	model := mkModel()
	rep := &TunedSweepReport{
		Model: machine, Collective: "allreduce",
		Nodes: nodes, PPN: ppn, Iters: iters,
		Seed: seed, CongestionNet: tunedCongestionNet,
		BitIdentical: true,
	}
	mkQuery := func(policy string) *spec.Query {
		return &spec.Query{
			Machine:    machine,
			Topology:   spec.Topology{Nodes: nodes, PPN: ppn},
			Collective: "allreduce",
			Sizes:      tunedSweepSizes,
			Iters:      iters,
			Noise:      &spec.Noise{Seed: seed, Congestion: map[string]float64{"net": tunedCongestionNet}},
			Tuning:     spec.Tuning{Policy: policy},
		}
	}
	start := time.Now()

	table, err := spec.Run(mkQuery("table"))
	if err != nil {
		return nil, fmt.Errorf("bench: tuned sweep (table): %w", err)
	}

	// Cold pass: an empty store means every selection falls back to
	// the cost prior (the never-block contract) while the tuner races
	// the candidates in the background. The reference path has no
	// tuner at all, which makes the measured policy exactly the cost
	// policy, so its timeline is the report's cost column.
	store := tune.NewStore()
	tuner := spec.NewTuner(store)
	cold, err := Referee(mkQuery("measured"),
		Path{Name: "cost"}, Path{Name: "cold-store", Exec: &spec.Exec{Tuner: tuner}})
	if err == nil {
		if err = cold.Err(); err != nil {
			err = fmt.Errorf("pending measurements must serve the cost pick: %w", err)
		}
	}
	if err != nil {
		tuner.Close()
		return nil, fmt.Errorf("bench: tuned sweep (cold measured): %w", err)
	}
	cost := cold.Runs[0].Result
	tuner.Drain()
	tuner.Close()
	if n := tuner.Errors(); n != 0 {
		return nil, fmt.Errorf("bench: tuned sweep: %d measurement errors", n)
	}

	// Persistence round trip: the warm runs serve from a store that
	// went through Save and Load, so the on-disk format is load-bearing
	// for the determinism verdict below.
	f, err := os.CreateTemp("", "repro-tune-*.jsonl")
	if err != nil {
		return nil, fmt.Errorf("bench: tuned sweep: %w", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := store.Save(path); err != nil {
		return nil, fmt.Errorf("bench: tuned sweep: %w", err)
	}
	reloaded, err := tune.Load(path)
	if err != nil {
		return nil, fmt.Errorf("bench: tuned sweep: reloading the saved store: %w", err)
	}
	if reloaded.Len() != store.Len() {
		return nil, fmt.Errorf("bench: tuned sweep: reloaded %d entries, saved %d", reloaded.Len(), store.Len())
	}
	warmTuner := spec.NewTuner(reloaded)
	defer warmTuner.Close()

	// Warm pass: every world-reuse path plus a full rerun of the
	// reference, all serving from the reloaded store.
	pool := spec.NewWorldPool(spec.PoolConfig{})
	defer pool.Close()
	paths := worldReusePaths(pool, warmTuner)
	paths = append(paths, Path{Name: "rerun", Exec: paths[0].Exec})
	warm, err := Referee(mkQuery("measured"), paths...)
	if err != nil {
		return nil, fmt.Errorf("bench: tuned sweep (warm): %w", err)
	}
	if st := reloaded.Stats(); st.Hits == 0 {
		return nil, fmt.Errorf("bench: tuned sweep: warm runs never hit the store")
	}
	if reloaded.Generation() != 0 {
		return nil, fmt.Errorf("bench: tuned sweep: warm runs mutated the store")
	}

	// The measured picks, straight from the store the runs served from.
	measuredPicks := map[int]string{}
	reloaded.Each(func(k tune.Key, e tune.Entry) {
		if k.Collective == "allreduce" && k.CommSize == nodes*ppn {
			measuredPicks[k.Bytes] = e.Algorithm
		}
	})

	st := store.Stats()
	rep.StoreEntries = st.Entries
	rep.Measurements = st.Measured
	for i, p := range warm.Runs[0].Result.Points {
		rep.BitIdentical = rep.BitIdentical && warm.Agree[i]
		costPick, err := coll.Choose(coll.CollAllreduce,
			coll.Env{Size: nodes * ppn, Bytes: p.Bytes, Count: p.Bytes / 8, Model: model, Hop: sim.HopNet},
			coll.Tuning{Policy: coll.PolicyCost})
		if err != nil {
			return nil, fmt.Errorf("bench: tuned sweep: pricing %d B: %w", p.Bytes, err)
		}
		beats := p.VirtualPs < cost.Points[i].VirtualPs
		if beats {
			rep.BeatsCost++
		}
		rep.Points = append(rep.Points, TunedPoint{
			Bytes:             p.Bytes,
			TablePs:           table.Points[i].VirtualPs,
			CostPs:            cost.Points[i].VirtualPs,
			MeasuredPs:        p.VirtualPs,
			CostPick:          costPick,
			MeasuredPick:      measuredPicks[p.Bytes],
			MeasuredBeatsCost: beats,
			BitIdentical:      warm.Agree[i],
		})
	}
	rep.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return rep, nil
}
