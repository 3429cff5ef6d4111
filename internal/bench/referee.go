package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/spec"
)

// The referee is the harness's one cross-path virtual-time check. The
// paper's claims are comparisons of virtual time between execution
// variants, so every sweep a spec.Query can express runs its query once
// per execution path — engine, world-reuse environment, tuning store,
// rerun — and the referee decides, point by point, whether each path
// reproduced the reference path's makespan to the picosecond.

// Path is one way to execute a Query.
type Path struct {
	// Name labels the path in verdicts and errors, e.g. "event" or
	// "pooled-warm".
	Name string
	// Engine overrides the query's execution backend when non-empty.
	Engine string
	// Exec is the execution environment; nil is spec.Run's zero
	// environment (no pool, warm worlds within each fold group).
	Exec *spec.Exec
}

// PathRun is one path's execution of a refereed query.
type PathRun struct {
	Path   Path
	Result *spec.Result
	// Wall is the host time of the whole execution, world setup
	// included.
	Wall time.Duration
}

// Mismatch is one (path, ladder point) whose virtual time differs from
// the reference path's.
type Mismatch struct {
	Path   string
	Bytes  int
	GotPs  int64
	WantPs int64
}

// Verdict is the referee's judgement of one query across its paths.
type Verdict struct {
	// Runs holds one entry per path, in path order; Runs[0] is the
	// reference.
	Runs []PathRun
	// Agree reports, per ladder point, that every path reproduced the
	// reference's virtual time exactly.
	Agree []bool
	// Mismatches lists every disagreeing (path, point), path-major.
	Mismatches []Mismatch
}

// Err is nil when every path agreed, and otherwise an error naming the
// first disagreeing path and ladder size.
func (v *Verdict) Err() error {
	if len(v.Mismatches) == 0 {
		return nil
	}
	m := v.Mismatches[0]
	more := ""
	if n := len(v.Mismatches) - 1; n > 0 {
		more = fmt.Sprintf(" (and %d more mismatches)", n)
	}
	return fmt.Errorf("bench: path %s disagrees with %s at %d B: %d ps, want %d ps%s",
		m.Path, v.Runs[0].Path.Name, m.Bytes, m.GotPs, m.WantPs, more)
}

// worldReusePaths is the referee line-up of the noise and tuned
// sweeps: the goroutine engine on a warm world (the reference), the
// event engine, construct-per-point worlds, and a pooled execution run
// twice so the second pass replays on a warm checked-in world. tuner
// backs the measured policy on every path (nil: no store).
func worldReusePaths(pool *spec.WorldPool, tuner *spec.Tuner) []Path {
	pooled := &spec.Exec{Pool: pool, Tuner: tuner}
	return []Path{
		{Name: "goroutine", Exec: &spec.Exec{Tuner: tuner}},
		{Name: "event", Engine: "event", Exec: &spec.Exec{Tuner: tuner}},
		{Name: "per-point", Exec: &spec.Exec{PerPointWorlds: true, Tuner: tuner}},
		{Name: "pooled", Exec: pooled},
		{Name: "pooled-warm", Exec: pooled},
	}
}

// Referee executes q once per path, in order, and judges every path
// against the first. Each path runs its own canonical copy of q, so the
// caller's query is left untouched. An execution error aborts the
// referee; a virtual-time disagreement is reported in the Verdict.
func Referee(q *spec.Query, paths ...Path) (*Verdict, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("bench: referee needs at least one path")
	}
	canon, err := q.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	runs := make([]PathRun, len(paths))
	for i, p := range paths {
		c, err := spec.Parse(canon)
		if err != nil {
			return nil, err
		}
		if p.Engine != "" {
			c.Engine = p.Engine
		}
		exec := p.Exec
		if exec == nil {
			exec = &spec.Exec{}
		}
		start := time.Now()
		res, err := exec.RunContext(context.Background(), c)
		if err != nil {
			return nil, fmt.Errorf("bench: path %s: %w", p.Name, err)
		}
		runs[i] = PathRun{Path: p, Result: res, Wall: time.Since(start)}
	}
	return judge(runs), nil
}

// judge compares every run's per-point virtual times with runs[0]'s —
// the only place in the harness that does.
func judge(runs []PathRun) *Verdict {
	ref := runs[0].Result.Points
	v := &Verdict{Runs: runs, Agree: make([]bool, len(ref))}
	for i := range v.Agree {
		v.Agree[i] = true
	}
	for _, r := range runs[1:] {
		for i, want := range ref {
			if got := r.Result.Points[i].VirtualPs; got != want.VirtualPs {
				v.Agree[i] = false
				v.Mismatches = append(v.Mismatches, Mismatch{
					Path: r.Path.Name, Bytes: want.Bytes,
					GotPs: got, WantPs: want.VirtualPs,
				})
			}
		}
	}
	return v
}
