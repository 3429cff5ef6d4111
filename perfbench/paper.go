package main

import (
	"fmt"

	"repro/internal/bpmf"
	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

// paperIters is the timed repetitions of one allgather or bcast point
// (virtual time is deterministic, so a handful gives the paper's mean).
const paperIters = 5

// fig12Config is the chembl_20-shaped BPMF workload of Fig. 12 (see
// EXPERIMENTS.md for its calibration).
func fig12Config() bpmf.Config {
	return bpmf.Config{
		Users: 15073, Items: 2048, K: 10, AvgDeg: 4,
		Iters: 20, Seed: 20, RowOverheadFlops: 3e6,
	}
}

// paperWorkload runs the paper's points on the default goroutine
// engine, each op on a world of its own, as cmd/experiments does.
type paperWorkload struct {
	list []paperOp
	seen keySet
	// geoSeen marks topologies whose coll geometry this process built.
	geoSeen keySet
}

func newPaper(seed int64) *paperWorkload {
	return &paperWorkload{list: genPaper(seed), seen: keySet{}, geoSeen: keySet{}}
}

func (w *paperWorkload) size() int                 { return len(w.list) }
func (w *paperWorkload) key(i int) string          { return w.list[i].key() }
func (w *paperWorkload) clients() int              { return 1 }
func (w *paperWorkload) digest() string            { return digest(w.list) }
func (w *paperWorkload) start() error              { return nil }
func (w *paperWorkload) close()                    {}
func (w *paperWorkload) layers(map[string]float64) {}

func (w *paperWorkload) exec(i, seq int, tr *tracer) result {
	o := w.list[i]
	res := result{class: w.seen.classify(o.key()), sim: true}
	root := tr.begin("op", seq, -1)
	defer tr.end(root)
	simTr := eventTracer(tr, seq, res.class)
	ps, runNs, err := w.run(o, seq, root, tr, simTr)
	events := eventCount(simTr)
	res.check, res.events, res.runNs, res.err = fmt.Sprint(ps), events, runNs, err
	return res
}

// refer recomputes point i on a fresh world, untraced.
func (w *paperWorkload) refer(i int) (string, error) {
	ps, _, err := w.run(w.list[i], -1, -1, nil, nil)
	return fmt.Sprint(ps), err
}

// run executes one point and returns its virtual makespan in
// picoseconds (the total over paperIters for allgather and bcast).
func (w *paperWorkload) run(o paperOp, seq, root int, tr *tracer, simTr *sim.Tracer) (ps, runNs int64, err error) {
	newModel, ok := sim.Profiles()[o.Machine]
	if !ok {
		return 0, 0, fmt.Errorf("unknown machine %q", o.Machine)
	}
	model := newModel()
	s := tr.begin("sim.topology_build", seq, root)
	topo, err := sim.NewTopology(o.Nodes)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	cfg := mpi.DefaultConfig()
	cfg.Tracer = simTr
	s = tr.begin("mpi.world_build", seq, root)
	world, err := mpi.NewWorldConfig(model, topo, cfg)
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		s := tr.begin("mpi.close", seq, root)
		world.Close()
		tr.end(s)
	}()

	var run int
	switch o.Kind {
	case "summa":
		run = tr.begin("summa.run", seq, root)
		var r summa.Result
		r, err = summa.Run(world, summa.Config{GridDim: o.Grid, BlockDim: o.Block, Hybrid: o.Hybrid})
		ps = int64(r.Makespan)
	case "bpmf":
		run = tr.begin("bpmf.run", seq, root)
		cfg := fig12Config()
		cfg.Hybrid = o.Hybrid
		var r bpmf.Result
		r, err = bpmf.Run(world, cfg)
		ps = int64(r.Makespan)
	default:
		run = tr.begin("mpi.run", seq, root)
		err = w.collective(world, o, seq, run, tr)
		ps = int64(world.MaxClock())
	}
	tr.end(run)
	if err != nil {
		return 0, 0, err
	}
	return ps, tr.duration(run), nil
}

// collective runs paperIters allgathers or bcasts in the op's flavor:
// the hybrid MPI+MPI shared-window version or the SMP-aware pure-MPI
// baseline (coll.Hier).
func (w *paperWorkload) collective(world *mpi.World, o paperOp, seq, run int, tr *tracer) error {
	setupName, bodyName := "hybrid.setup", "hybrid."+o.Kind
	if !o.Hybrid {
		setupName = "coll.geometry_cold"
		if w.geoSeen.classify(fmt.Sprint(o.Nodes)) == "hit" {
			setupName = "coll.geometry_warm"
		}
		bodyName = "coll." + o.Kind
	}
	setup, body := tr.window(), tr.window()
	err := world.Run(func(p *mpi.Proc) error {
		if o.Hybrid {
			return hybridBody(p, o, setup, body)
		}
		return pureBody(p, o, setup, body)
	})
	setup.record(setupName, seq, run)
	body.record(bodyName, seq, run)
	return err
}

func hybridBody(p *mpi.Proc, o paperOp, setup, body *rankWindow) error {
	setup.enter()
	ctx, err := hybrid.New(p.CommWorld())
	if err != nil {
		return err
	}
	var step func() error
	if o.Kind == "bcast" {
		b, err := ctx.NewBcaster(o.Bytes)
		if err != nil {
			return err
		}
		step = func() error { return b.Bcast(0) }
	} else {
		a, err := ctx.NewAllgatherer(o.Bytes)
		if err != nil {
			return err
		}
		step = a.Allgather
	}
	setup.exit()
	body.enter()
	defer body.exit()
	for range paperIters {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func pureBody(p *mpi.Proc, o paperOp, setup, body *rankWindow) error {
	setup.enter()
	h, err := coll.NewHier(p.CommWorld())
	setup.exit()
	if err != nil {
		return err
	}
	body.enter()
	defer body.exit()
	if o.Kind == "bcast" {
		buf := mpi.Sized(o.Bytes)
		for range paperIters {
			if err := h.Bcast(buf, 0); err != nil {
				return err
			}
		}
		return nil
	}
	send, recv := mpi.Sized(o.Bytes), mpi.Sized(o.Bytes*p.Size())
	for range paperIters {
		if err := h.Allgather(send, recv, o.Bytes); err != nil {
			return err
		}
	}
	return nil
}
