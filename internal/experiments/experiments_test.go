package experiments

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mvgc/internal/ycsb"
)

// Tiny configurations: these tests verify the harnesses are wired
// correctly (leak-free, plausible metrics), not performance.

func TestRunTable2CellMetrics(t *testing.T) {
	c := RunTable2Cell(Table2Config{N: 5_000, Procs: 4, Duration: 80 * time.Millisecond}, "pswf", 10, 10)
	if c.QueryMops <= 0 {
		t.Error("no queries measured")
	}
	if c.UpdateMops <= 0 {
		t.Error("no updates measured")
	}
	if c.MaxVersions < 1 || c.MaxVersions > 2*4+1 {
		t.Errorf("MaxVersions = %d outside PSWF bound", c.MaxVersions)
	}
}

func TestRunFigure7CellOursAndBaseline(t *testing.T) {
	cfg := DefaultFigure7()
	cfg.Records = 20_000
	cfg.Threads = 4
	cfg.Duration = 80 * time.Millisecond
	cfg.MaxLatency = time.Millisecond
	for _, s := range []string{"ours", "ours-sharded", "hashmap"} {
		if mops := RunFigure7Cell(cfg, s, ycsb.WorkloadA); mops <= 0 {
			t.Errorf("%s: no throughput measured", s)
		}
	}
}

func TestRunTable3Row(t *testing.T) {
	cfg := DefaultTable3()
	cfg.Threads = 4
	cfg.InitialDocs = 100
	cfg.Vocab = 2_000
	cfg.MeanDocLen = 16
	cfg.Window = 100 * time.Millisecond
	r := RunTable3Row(cfg, 2)
	if r.Updates <= 0 || r.Queries <= 0 {
		t.Fatalf("no work measured: %+v", r)
	}
	if r.Tu <= 0 || r.Tq <= 0 || r.Tuq <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
	// p is clamped into [1, Threads-1].
	r2 := RunTable3Row(cfg, 100)
	if r2.QueryThreads != cfg.Threads-1 {
		t.Fatalf("p not clamped: %d", r2.QueryThreads)
	}
}

func TestQueryThreadSweep(t *testing.T) {
	if got := QueryThreadSweep(8); len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("sweep(8) = %v", got)
	}
	if got := QueryThreadSweep(1); len(got) != 1 {
		t.Fatalf("sweep(1) = %v", got)
	}
}

// TestLongReaderPlateaus is the space claim as a gate: under one pinned
// reader and a fixed write storm, the space-bounded collectors keep the
// retained versions within internal/vm TestUncollectedBounds' bounds for the
// cell's P, while epoch — unable to advance past the pin — retains more than
// its bound would allow.  Fixed op counts make the peaks deterministic
// functions of the configuration, not of the machine's speed.
func TestLongReaderPlateaus(t *testing.T) {
	cfg := LongReaderConfig{Records: 2_000, Writers: 3, OpsPerWriter: 2_000}
	procs := int64(cfg.Writers + 1) // the pinned reader's pid and the writers'
	bounds := map[string]int64{
		"pswf":  2*procs + 1,
		"hp":    2*procs*procs + 1,
		"sbgc":  2*procs*procs + 1,
		"epoch": 2*procs*procs + 1, // the largest bound above: epoch must exceed it
	}
	for alg, bound := range bounds {
		c := RunLongReaderCell(cfg, alg)
		t.Logf("%s: peak %d versions (bound %d)", alg, c.PeakVersions, bound)
		if c.WriteMops <= 0 {
			t.Errorf("%s: no write throughput measured", alg)
		}
		if alg == "epoch" {
			if c.PeakVersions <= bound {
				t.Errorf("epoch: peak %d versions under a pinned reader, want more than %d", c.PeakVersions, bound)
			}
		} else if c.PeakVersions > bound {
			t.Errorf("%s: peak %d versions under a pinned reader, bound %d", alg, c.PeakVersions, bound)
		}
	}
}

func TestRunCountsAllWorkers(t *testing.T) {
	mops := run(4, 50*time.Millisecond, func(worker int, stop *atomic.Bool, c *counter) {
		for !stop.Load() {
			c.add(1)
		}
	})
	if mops <= 0 {
		t.Fatal("no operations counted")
	}
}

func TestCounterPadding(t *testing.T) {
	// Counters must be at least a cache line apart when adjacent.
	cs := make([]counter, 2)
	a := unsafe.Pointer(&cs[0])
	b := unsafe.Pointer(&cs[1])
	if uintptr(b)-uintptr(a) < 64 {
		t.Fatalf("adjacent counters only %d bytes apart", uintptr(b)-uintptr(a))
	}
}
