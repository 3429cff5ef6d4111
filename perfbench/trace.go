package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one op share Op; Parent is the index of the span
// that caused this one, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the whole run; write dumps them at
// exit. A nil *tracer records nothing, so the untraced run executes the
// same op code with every span call reduced to a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// duration is the length of span id in nanoseconds.
func (t *tracer) duration(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// rankWindow times one collective phase across the ranks of a world:
// from the first rank in to the last rank out. A nil window (untraced
// run) records nothing.
type rankWindow struct {
	t           *tracer
	first, last atomic.Int64
}

func (t *tracer) window() *rankWindow {
	if t == nil {
		return nil
	}
	w := &rankWindow{t: t}
	w.first.Store(math.MaxInt64)
	w.last.Store(-1)
	return w
}

func (w *rankWindow) enter() {
	if w == nil {
		return
	}
	now := w.t.now()
	for {
		cur := w.first.Load()
		if now >= cur || w.first.CompareAndSwap(cur, now) {
			return
		}
	}
}

func (w *rankWindow) exit() {
	if w == nil {
		return
	}
	now := w.t.now()
	for {
		cur := w.last.Load()
		if now <= cur || w.last.CompareAndSwap(cur, now) {
			return
		}
	}
}

// record adds the window as a span if any rank passed through it.
func (w *rankWindow) record(name string, op, parent int) {
	if w == nil || w.last.Load() < 0 {
		return
	}
	w.t.add(name, op, parent, w.first.Load(), w.last.Load())
}

// selfTimes returns, per op and span name, the summed self time in
// nanoseconds: each span's duration minus the part of it its child
// spans cover.
func (t *tracer) selfTimes() map[int]map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[int]map[string]int64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[i])
		if out[s.Op] == nil {
			out[s.Op] = map[string]int64{}
		}
		out[s.Op][s.Name] += self
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of spans.
func covered(lo, hi int64, spans [][2]int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s[0], cur), min(s[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span as one JSON line, gzip-compressed (a traced
// service run records millions of spans).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
