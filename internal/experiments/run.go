package experiments

import (
	"sync"
	"sync/atomic"
	"time"
)

// counter is a cache-line padded operation counter owned by one worker.
type counter struct {
	n atomic.Int64
	_ [7]uint64
}

func (c *counter) add(d int64) { c.n.Add(d) }

func (c *counter) load() int64 { return c.n.Load() }

// run starts one goroutine per worker, lets them run for d, collects their
// counters and returns million operations per second, the paper's unit.
// Each worker must loop "for !stop.Load() { ...; c.add(1) }".
func run(workers int, d time.Duration, body func(worker int, stop *atomic.Bool, c *counter)) float64 {
	counters := make([]counter, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, &stop, &counters[w])
		}(w)
	}
	start := time.Now()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for i := range counters {
		total += counters[i].load()
	}
	return float64(total) / elapsed.Seconds() / 1e6
}
