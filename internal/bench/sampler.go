package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// goroutineSampler polls the process goroutine count in the background
// and keeps the high-water mark — the "how many parked rank workers did
// this workload really hold" column of the wall-clock and stencil
// reports.
type goroutineSampler struct {
	max  atomic.Int64
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func newGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > s.max.Load() {
					s.max.Store(n)
				}
			}
		}
	}()
	return s
}

// stop retires the sampling goroutine. Idempotent, so error paths can
// defer it while success paths stop eagerly before reading peak().
func (s *goroutineSampler) stop() {
	s.once.Do(func() {
		close(s.quit)
		s.wg.Wait()
	})
}

func (s *goroutineSampler) peak() int { return int(s.max.Load()) }
