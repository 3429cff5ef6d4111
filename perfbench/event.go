package main

import (
	"context"
	"fmt"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

// eventWorkload runs spec queries on the event engine through
// spec.RunContext. The traced run executes the same query through the
// public steps spec.RunContext takes (topology build, fold resolution,
// world build, run, close), so each can carry a span; the referee pins
// both paths to the same virtual time.
type eventWorkload struct {
	list    []eventOp
	seen    keySet
	geoSeen keySet
}

func newEvent(seed int64) *eventWorkload {
	return &eventWorkload{list: genEvent(seed), seen: keySet{}, geoSeen: keySet{}}
}

func (w *eventWorkload) size() int                 { return len(w.list) }
func (w *eventWorkload) key(i int) string          { return w.list[i].Query }
func (w *eventWorkload) clients() int              { return 1 }
func (w *eventWorkload) digest() string            { return digest(w.list) }
func (w *eventWorkload) start() error              { return nil }
func (w *eventWorkload) close()                    {}
func (w *eventWorkload) layers(map[string]float64) {}

func (w *eventWorkload) exec(i, seq int, tr *tracer) result {
	body := w.list[i].Query
	res := result{class: w.seen.classify(body), sim: true}
	if tr == nil {
		q, err := spec.Parse([]byte(body))
		if err != nil {
			res.err = err
			return res
		}
		r, err := spec.RunContext(context.Background(), q)
		if err != nil {
			res.err = err
			return res
		}
		res.check, res.folded = pointsCheck(r.Points), r.Points[0].FoldUnit > 0
		return res
	}
	root := tr.begin("op", seq, -1)
	defer tr.end(root)
	simTr := eventTracer(tr, seq, res.class)
	ps, fold, runNs, err := w.traced(body, seq, root, tr, simTr)
	res.check, res.folded, res.runNs, res.err = fmt.Sprint(ps), fold > 0, runNs, err
	res.events = eventCount(simTr)
	return res
}

// refer runs the query on the construct-per-point path.
func (w *eventWorkload) refer(i int) (string, error) {
	return referRun(w.list[i].Query)
}

// referRun executes a /v1/run body on spec's construct-per-point path
// and renders its points' virtual times.
func referRun(body string) (string, error) {
	q, err := spec.Parse([]byte(body))
	if err != nil {
		return "", err
	}
	r, err := (&spec.Exec{PerPointWorlds: true}).RunContext(context.Background(), q)
	if err != nil {
		return "", err
	}
	return pointsCheck(r.Points), nil
}

func pointsCheck(points []spec.Point) string {
	s := ""
	for i, p := range points {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(p.VirtualPs)
	}
	return s
}

// traced executes a one-size allgather or bcast query step by step.
func (w *eventWorkload) traced(body string, seq, root int, tr *tracer, simTr *sim.Tracer) (ps int64, fold int, runNs int64, err error) {
	s := tr.begin("spec.parse", seq, root)
	q, err := spec.Parse([]byte(body))
	tr.end(s)
	if err != nil {
		return 0, 0, 0, err
	}
	s = tr.begin("spec.canon", seq, root)
	err = q.Canonicalize()
	if err == nil {
		_, err = q.Fingerprint()
	}
	tr.end(s)
	if err != nil {
		return 0, 0, 0, err
	}
	model, err := q.Model()
	if err != nil {
		return 0, 0, 0, err
	}
	s = tr.begin("sim.topology_build", seq, root)
	topo, err := q.Topology.Build()
	tr.end(s)
	if err != nil {
		return 0, 0, 0, err
	}
	tun, err := q.Tuning.Coll()
	if err != nil {
		return 0, 0, 0, err
	}
	b := q.Sizes[0]
	if q.Collective == "allgather" {
		fold = coll.HierAllgatherFoldUnit(model, topo, b, tun)
	}
	s = tr.begin("mpi.world_build", seq, root)
	world, err := mpi.NewWorldConfig(model, topo, mpi.Config{
		Engine: sim.EngineEvent, FoldUnit: fold, CollConfig: tun, Tracer: simTr,
	})
	tr.end(s)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		s := tr.begin("mpi.close", seq, root)
		world.Close()
		tr.end(s)
	}()

	geo := "coll.geometry_cold"
	if w.geoSeen.classify(topo.String()) == "hit" {
		geo = "coll.geometry_warm"
	}
	setup, call := tr.window(), tr.window()
	run := tr.begin("mpi.run", seq, root)
	err = world.Run(func(p *mpi.Proc) error {
		if q.Collective == "bcast" {
			call.enter()
			defer call.exit()
			for range q.Iters {
				if err := coll.Bcast(p.CommWorld(), mpi.Sized(b), 0); err != nil {
					return err
				}
			}
			return nil
		}
		setup.enter()
		h, err := coll.NewHier(p.CommWorld())
		setup.exit()
		if err != nil {
			return err
		}
		call.enter()
		defer call.exit()
		send, recv := mpi.Sized(b), mpi.Sized(b*p.Size())
		for range q.Iters {
			if err := h.Allgather(send, recv, b); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(run)
	setup.record(geo, seq, run)
	call.record("coll."+q.Collective, seq, run)
	if err != nil {
		return 0, 0, 0, err
	}
	return int64(world.MaxClock()), fold, tr.duration(run), nil
}
