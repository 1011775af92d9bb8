package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// LongReaderConfig parameterizes the long-reader-plus-write-storm
// experiment: one read transaction pins a snapshot for the whole run while
// W writers each commit a fixed number of point updates.  The fixed op
// count (rather than a duration) makes the retained-version ceiling a
// deterministic function of the configuration, so peaks are comparable
// across algorithms and across runs.
type LongReaderConfig struct {
	// Records is the loaded key-space size.
	Records uint64
	// Writers is the number of concurrent writer processes W.
	Writers int
	// OpsPerWriter is the number of committed point updates per writer.
	OpsPerWriter int
	// Algorithms to run.  rcu is never among them: its writers block on the
	// pinned reader, so the storm would deadlock by design rather than
	// measure anything.
	Algorithms []string
}

// LongReaderCell is one algorithm's long-reader-plus-write-storm
// measurement.  PeakVersions is the headline space metric: the largest
// retained-version count observed while one read transaction pinned a
// snapshot through the storm — a space-bounded collector plateaus at O(P),
// an epoch-style one grows with the op count.  PeakHeapBytes is the
// matching Go-heap high-water mark and WriteMops the writers' committed
// throughput while contending with the pin.
type LongReaderCell struct {
	PeakVersions  int64
	PeakHeapBytes uint64
	WriteMops     float64
}

// DefaultLongReader returns a host-scaled configuration.
func DefaultLongReader() LongReaderConfig {
	w := runtime.GOMAXPROCS(0) - 1
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return LongReaderConfig{
		Records:      100_000,
		Writers:      w,
		OpsPerWriter: 200_000,
		Algorithms:   []string{"sbgc", "epoch", "hp", "pswf"},
	}
}

// RunLongReaderCell runs the storm against one Version Maintenance
// algorithm and returns its measured cell.  PeakVersions is the largest
// Uncollected() observed while the reader was pinned; for a space-bounded
// algorithm it plateaus at O(P·pins), while an epoch-style collector —
// unable to advance past the pinned reader — retains O(total ops).
// PeakHeapBytes is the matching Go-heap high-water mark (sampled
// HeapAlloc after a normalizing GC), and WriteMops the writers' combined
// committed-update throughput while contending with the pinned snapshot.
func RunLongReaderCell(cfg LongReaderConfig, alg string) LongReaderCell {
	ops := ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 512)
	initial := make([]ftree.Entry[uint64, uint64], cfg.Records)
	for i := range initial {
		initial[i] = ftree.Entry[uint64, uint64]{Key: uint64(i), Val: uint64(i)}
	}
	// pid 0 is the pinned reader; pids 1..W are the writers.
	m, err := core.NewMap(core.Config{Algorithm: alg, Procs: cfg.Writers + 1}, ops, initial)
	if err != nil {
		panic(err)
	}
	runtime.GC() // normalize the heap baseline across cells

	// The long reader: pin a snapshot and hold it (blocked on release)
	// until the storm is over and the peaks have been sampled.
	release := make(chan struct{})
	pinned := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		m.Read(0, func(s core.Snapshot[uint64, uint64, struct{}]) {
			s.Get(0)
			close(pinned)
			<-release
		})
	}()
	<-pinned

	// The sampler tracks the peak retained-version count and heap
	// high-water mark, taking one final sample after the last commit (the
	// true peak for every algorithm) before acknowledging the stop.
	var (
		peakVersions int64
		peakHeap     uint64
		stopSample   = make(chan struct{})
		samplerDone  = make(chan struct{})
	)
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		sample := func() {
			if u := int64(m.Uncollected()); u > peakVersions {
				peakVersions = u
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
		for {
			sample()
			select {
			case <-stopSample:
				sample()
				return
			case <-tick.C:
			}
		}
	}()

	start := time.Now()
	var writerWG sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		writerWG.Add(1)
		go func(pid int) {
			defer writerWG.Done()
			g := ycsb.NewSplitMix64(uint64(pid)*0x9e3779b9 + 1)
			for i := 0; i < cfg.OpsPerWriter; i++ {
				k := g.Intn(cfg.Records)
				v := uint64(i)
				m.Update(pid, func(t *core.Txn[uint64, uint64, struct{}]) {
					t.Insert(k, v)
				})
			}
		}(w + 1)
	}
	writerWG.Wait()
	elapsed := time.Since(start)

	close(stopSample)
	<-samplerDone
	close(release)
	readerWG.Wait()

	m.Close()
	if live := ops.Live(); live != 0 {
		panic(fmt.Sprintf("longreader %s: leaked %d nodes", alg, live))
	}
	totalOps := float64(cfg.Writers) * float64(cfg.OpsPerWriter)
	return LongReaderCell{
		PeakVersions:  peakVersions,
		PeakHeapBytes: peakHeap,
		WriteMops:     totalOps / elapsed.Seconds() / 1e6,
	}
}
