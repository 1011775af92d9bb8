package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/wal"
)

// holdFS wraps a filesystem so that one fsync — the first after arm — is held
// until full reports the commit pipeline full (or a deadline passes), and
// every later one for long enough that the committer gets ahead of it again:
// the tests below crash, and fail, a log whose commits run ahead of it.
type holdFS struct {
	wal.FS
	armed atomic.Bool
	full  func() bool
}

func (fs *holdFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &holdFile{File: f, fs: fs}, nil
}

type holdFile struct {
	wal.File
	fs *holdFS
}

func (f *holdFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		for deadline := time.Now().Add(5 * time.Second); !f.fs.full() && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
	} else {
		time.Sleep(100 * time.Microsecond)
	}
	return f.File.Sync()
}

// tryOpenWALMap is reopenWALMap returning its errors: a crash scripted into
// the open itself is a matrix cell, not a test failure.
func tryOpenWALMap(t *testing.T, shards int, fs wal.FS) (*Map[uint64, uint64, struct{}], error) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 1 << 16})
	if err != nil {
		return nil, err
	}
	return openU64Map(shards, nil, u64WAL(log), rec)
}

// pipelineRun is one run of the pipelined workload, shaped like a served
// connection: a committer commits runs of pipeRun keys with CommitEach, one
// commit per shard each, and hands each run's log mark to an acker, which
// acknowledges the run once CommitTo(mark) returns — the log's first fsync
// held until every shard has three runs committed and unacknowledged.
type pipelineRun struct {
	m     *Map[uint64, uint64, struct{}]
	errs  []error        // per key: its verdict
	fired []atomic.Int32 // per key: how often it was resolved
	peak  []int64        // per shard: runs in flight when the held fsync let go
}

const (
	pipeShards   = 2
	pipeKeys     = 256
	pipeRun      = 4 // keys per run: every run writes both shards
	pipeInFlight = 3
)

func pipeVal(k uint64) uint64 { return k*10 + 1 }

// pipeMark is one run on its way from the committer to the acker.
type pipeMark struct {
	lo   uint64
	mark int64
	err  error
}

// runPipeline opens a map over fs, runs the workload and returns once every
// key is resolved.  arm, if non-nil, runs after the open, before the first
// commit (to script faults from "now" on).  A nil run means the open itself
// failed.
func runPipeline(t *testing.T, fs wal.FS, arm func()) *pipelineRun {
	t.Helper()
	hfs := &holdFS{FS: fs}
	m, err := tryOpenWALMap(t, pipeShards, hfs)
	if err != nil {
		return nil
	}
	r := &pipelineRun{m: m, errs: make([]error, pipeKeys), fired: make([]atomic.Int32, pipeKeys), peak: make([]int64, pipeShards)}
	// In flight on shard i: the runs committed there (nothing else writes)
	// minus the runs acknowledged.
	var acked atomic.Int64
	shards := m.shards // Close may run while a late fsync still asks
	inFlight := func(i int) int64 { return shards[i].Commits() - acked.Load() }
	hfs.full = func() bool {
		for i := range r.peak {
			r.peak[i] = inFlight(i)
		}
		for _, n := range r.peak {
			if n < pipeInFlight {
				return false
			}
		}
		return true
	}
	if arm != nil {
		arm()
	}
	hfs.armed.Store(true)
	marks := make(chan pipeMark, 2*pipeInFlight) // the committer runs this far ahead
	go func() {
		defer close(marks)
		for lo := uint64(0); lo < pipeKeys; lo += pipeRun {
			mark, err := m.CommitEach(func(tx *Txn[uint64, uint64, struct{}]) {
				for k := lo; k < lo+pipeRun; k++ {
					tx.Insert(k, pipeVal(k))
				}
			})
			marks <- pipeMark{lo, mark, err}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pm := range marks {
			err := pm.err
			if err == nil {
				err = m.wal.log.CommitTo(pm.mark)
			}
			for k := pm.lo; k < pm.lo+pipeRun; k++ {
				r.errs[k] = err
				r.fired[k].Add(1)
			}
			acked.Add(1)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("writes lost: the pipeline never resolved every committed run")
	}
	return r
}

func (r *pipelineRun) checkFiredOnce(t *testing.T, tag string) {
	t.Helper()
	for k := range r.fired {
		if n := r.fired[k].Load(); n != 1 {
			t.Fatalf("%s: key %d resolved %d times", tag, k, n)
		}
	}
}

// TestShardWALPipelineCrashMatrix: commits run ahead of the log — three and
// more runs per shard applied in memory, appended, and waiting for one held
// fsync — and the filesystem loses power at every operation index in turn.
// Whatever was acknowledged must be in the recovered map; every key is
// resolved exactly once, acknowledged or not.
func TestShardWALPipelineCrashMatrix(t *testing.T) {
	probe := wal.NewFaultFS(wal.NewMemFS())
	r := runPipeline(t, probe, nil)
	if r == nil {
		t.Fatal("probe run failed to open")
	}
	for i, n := range r.peak {
		if n < pipeInFlight {
			t.Fatalf("shard %d had %d runs in flight behind the held fsync, want >= %d", i, n, pipeInFlight)
		}
	}
	for k, err := range r.errs {
		if err != nil {
			t.Fatalf("probe: key %d: %v", k, err)
		}
	}
	if err := r.m.Close(); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	acked, cells := 0, 0

	// Runs differ by a few operations (how the fsyncs group); a little
	// slack past the probe's count covers the longest.
	for _, torn := range []int{0, 7} {
		for op := 1; op <= total+4; op++ {
			tag := fmt.Sprintf("crash@%d/torn=%d", op, torn)
			mem := wal.NewMemFS()
			ffs := wal.NewFaultFS(mem)
			ffs.SetTorn(torn)
			ffs.Script(op, wal.FaultCrash)
			r := runPipeline(t, ffs, nil)
			if r != nil {
				r.checkFiredOnce(t, tag)
				r.m.Close() //nolint:errcheck // past the cut every operation fails
			}

			m2, err := tryOpenWALMap(t, pipeShards, mem)
			if err != nil {
				t.Fatalf("%s: recovery: %v", tag, err)
			}
			if r != nil {
				got := dump(m2)
				for k, err := range r.errs {
					if err != nil {
						continue
					}
					acked++
					if v, ok := got[uint64(k)]; !ok || v != pipeVal(uint64(k)) {
						t.Fatalf("%s: key %d was acknowledged and is (%d, %v) after recovery", tag, k, v, ok)
					}
				}
				cells++
			}
			if err := m2.Close(); err != nil {
				t.Fatalf("%s: close after recovery: %v", tag, err)
			}
		}
	}
	// A matrix in which nothing was ever acknowledged would pass vacuously.
	if acked == 0 {
		t.Fatalf("no write was acknowledged in any of %d crash cells", cells)
	}
	t.Logf("%d fs operations, %d cells, %d acknowledged writes checked", total, cells, acked)
}

// TestShardWALPipelineSyncFailure: the fsync the pipeline is waiting behind
// fails.  Every run in flight — applied in memory, never durable — gets the
// error from its CommitTo, every key exactly once, none is lost, and what is
// committed afterwards is refused before it reaches memory:
// TestShardWALFailFast's contract, across a pipeline.
func TestShardWALPipelineSyncFailure(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	r := runPipeline(t, ffs, func() {
		// The next operation is the held flush's Write; its Sync and
		// everything after it fail.
		for op := ffs.Ops() + 2; op < ffs.Ops()+500; op++ {
			ffs.Script(op, wal.FaultErr)
		}
	})
	if r == nil {
		t.Fatal("open failed")
	}
	m := r.m
	defer m.Close()
	for i, n := range r.peak {
		if n < pipeInFlight {
			t.Fatalf("shard %d had %d runs in flight behind the failing fsync, want >= %d", i, n, pipeInFlight)
		}
	}
	r.checkFiredOnce(t, "failing fsync")
	for k, err := range r.errs {
		if !errors.Is(err, wal.ErrInjected) {
			t.Fatalf("key %d: got %v, want the injected fsync error", k, err)
		}
	}
	if m.wal.log.Err() == nil {
		t.Fatal("log error not sticky")
	}

	// Later commits: refused with the error, and before touching memory.
	const late = uint64(1000)
	if _, err := m.CommitEach(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(late, 1); tx.Insert(late+1, 1) }); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("CommitEach after the failure got %v, want the sticky log error", err)
	}
	if _, ok := m.Get(late); ok {
		t.Fatal("a refused write reached memory")
	}
	if _, ok := m.Get(late + 1); ok {
		t.Fatal("a refused write reached memory")
	}
}
