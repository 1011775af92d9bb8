package netserver

import (
	"fmt"
	"sync"
	"testing"

	"mvgc/internal/netclient"
)

// BenchmarkServeSweep sweeps the serving layer across connection count and
// pipelining depth on a loopback server with two shards: per iteration the
// connections share 1 024 SETs, each keeping depth in flight (replies
// retire in order, so the oldest is the next to complete) until all are
// acknowledged.  It reports ops/s and commits/op — shard commits per
// write: 1 with one write in flight per connection, falling as depth grows,
// because a connection's buffered writes are one write run, one commit per
// shard it touches.  Connections do not share commits; they share fsyncs.
//
//	go test -run '^$' -bench ServeSweep -benchtime 1x ./internal/netserver
func BenchmarkServeSweep(b *testing.B) {
	const setsPerIter = 1024
	for _, conns := range []int{1, 4, 16} {
		for _, depth := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("conns=%d/depth=%d", conns, depth), func(b *testing.B) {
				s, addr := startServer(b, Config{Shards: 2, MaxConns: conns})
				defer s.Shutdown()
				clients := make([]*netclient.Client, conns)
				for i := range clients {
					c, err := netclient.Dial(addr, depth)
					if err != nil {
						b.Fatal(err)
					}
					defer c.Close()
					clients[i] = c
				}
				commits := s.DB().Commits()
				errs := make([]error, conns)
				var wg sync.WaitGroup
				b.ResetTimer()
				for w, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[w] = pipelineSets(c, w, conns, b.N*setsPerIter, depth)
					}()
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				sets := float64(b.N * setsPerIter)
				b.ReportMetric(sets/b.Elapsed().Seconds(), "ops/s")
				b.ReportMetric(float64(s.DB().Commits()-commits)/sets, "commits/op")
			})
		}
	}
}

// pipelineSets issues worker w's share of n SETs (every conns-th of them)
// on c, keeping up to depth in flight, and waits for every reply.
func pipelineSets(c *netclient.Client, w, conns, n, depth int) error {
	const keys = 50_000
	window := make([]*netclient.Pending, 0, depth)
	for i := w; i < n; i += conns {
		k := int64(i % keys)
		window = append(window, c.SetAsync(k, k))
		if len(window) == depth {
			if err := c.Flush(); err != nil {
				return err
			}
			if err := window[0].Err(); err != nil {
				return err
			}
			window = append(window[:0], window[1:]...)
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for _, p := range window {
		if err := p.Err(); err != nil {
			return err
		}
	}
	return nil
}
