package bench

import (
	"fmt"
	"time"

	"repro/internal/spec"
)

// The noise sweep is the robustness dimension of cmd/perf -sweep: the
// same collective ladder simulated under a ladder of deterministic
// noise configurations — link congestion, seeded jitter, straggler
// ranks and their combination — reporting how far each level stretches
// the virtual makespan over the clean run. Every level is one
// spec.Query refereed across five paths (goroutine engine warm, event
// engine warm, per-point worlds, pooled worlds and a warm pooled
// re-run) and a point is only marked bit-identical when all of them
// agree exactly: the sweep doubles as the determinism gate for the
// noise subsystem.

// NoisePoint is one (noise level, ladder size) measurement.
type NoisePoint struct {
	// Label names the noise level, e.g. "jitter=0.3".
	Label string `json:"label"`
	// Bytes is the ladder entry.
	Bytes int `json:"bytes"`
	// VirtualPs is the exact virtual makespan (Iters operations).
	VirtualPs int64 `json:"virtual_ps"`
	// VirtualUs is the same makespan in microseconds.
	VirtualUs float64 `json:"virtual_us"`
	// SlowdownVsClean is VirtualPs over the clean level's VirtualPs at
	// the same size (1.0 for the clean level itself).
	SlowdownVsClean float64 `json:"slowdown_vs_clean"`
	// BitIdentical reports that both engines, the per-point referee,
	// and a pooled warm re-run produced exactly this VirtualPs.
	BitIdentical bool `json:"bit_identical"`
}

// NoiseSweepReport is the noise section of a BENCH_*.json document.
type NoiseSweepReport struct {
	Model      string `json:"model"`
	Collective string `json:"collective"`
	Nodes      int    `json:"nodes"`
	PPN        int    `json:"ppn"`
	Iters      int    `json:"iters"`
	// Seed keys every noisy level.
	Seed int64 `json:"seed"`
	// WallMs is the host time the whole sweep took.
	WallMs float64 `json:"wall_ms"`
	// BitIdentical is the conjunction over every point — the headline
	// determinism verdict.
	BitIdentical bool         `json:"bit_identical"`
	Points       []NoisePoint `json:"points"`
}

// noiseLevel is one rung of the noise ladder.
type noiseLevel struct {
	label string
	noise *spec.Noise
}

// noiseLevels is the standard ladder: clean, two congestion factors,
// two jitter amplitudes, a straggler, and everything at once.
func noiseLevels(seed int64) []noiseLevel {
	return []noiseLevel{
		{"clean", nil},
		{"congestion net=2", &spec.Noise{Seed: seed, Congestion: map[string]float64{"net": 2}}},
		{"congestion net=8", &spec.Noise{Seed: seed, Congestion: map[string]float64{"net": 8}}},
		{"jitter=0.1", &spec.Noise{Seed: seed, Jitter: 0.1}},
		{"jitter=0.5", &spec.Noise{Seed: seed, Jitter: 0.5}},
		{"straggler x8", &spec.Noise{Seed: seed, Stragglers: []int{0}, StragglerFactor: 8}},
		{"mixed", &spec.Noise{Seed: seed, Jitter: 0.3, Stragglers: []int{0}, StragglerFactor: 4,
			Congestion: map[string]float64{"net": 2, "shm": 1.5}}},
	}
}

// noiseSweepSizes is the ladder each level runs.
var noiseSweepSizes = []int{4096, 262144}

// RunNoiseSweep measures the noise dimension on the given machine
// profile: an 8x8 allreduce ladder per noise level, each level
// refereed across both engines and all three world-reuse paths.
func RunNoiseSweep(machine string, seed int64) (*NoiseSweepReport, error) {
	const nodes, ppn, iters = 8, 8, 2
	rep := &NoiseSweepReport{
		Model: machine, Collective: "allreduce",
		Nodes: nodes, PPN: ppn, Iters: iters,
		Seed: seed, BitIdentical: true,
	}
	pool := spec.NewWorldPool(spec.PoolConfig{})
	defer pool.Close()
	paths := worldReusePaths(pool, nil)
	start := time.Now()

	clean := map[int]int64{} // bytes -> clean VirtualPs
	for _, lvl := range noiseLevels(seed) {
		v, err := Referee(&spec.Query{
			Machine:    machine,
			Topology:   spec.Topology{Nodes: nodes, PPN: ppn},
			Collective: "allreduce",
			Sizes:      noiseSweepSizes,
			Iters:      iters,
			Noise:      lvl.noise,
			Tuning:     spec.Tuning{Policy: "cost"},
		}, paths...)
		if err != nil {
			return nil, fmt.Errorf("bench: noise sweep %q: %w", lvl.label, err)
		}
		for i, p := range v.Runs[0].Result.Points {
			rep.BitIdentical = rep.BitIdentical && v.Agree[i]
			if lvl.noise == nil {
				clean[p.Bytes] = p.VirtualPs
			}
			slowdown := 0.0
			if base := clean[p.Bytes]; base > 0 {
				slowdown = float64(p.VirtualPs) / float64(base)
			}
			rep.Points = append(rep.Points, NoisePoint{
				Label: lvl.label, Bytes: p.Bytes,
				VirtualPs: p.VirtualPs, VirtualUs: float64(p.VirtualPs) / 1e6,
				SlowdownVsClean: slowdown, BitIdentical: v.Agree[i],
			})
		}
	}
	rep.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return rep, nil
}
