//go:build !race

package mvgc_test

import (
	"encoding/json"
	"flag"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"mvgc"
	"mvgc/internal/shard"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/work.json with the counts TestWorkCounts reads")

// workKeys is the key count of both streams' databases.
const workKeys = 200_000

// TestWorkCounts: the work behind a fixed op stream repeats exactly, where
// wall time on a shared host cannot resolve a few per cent, so these counts
// are gates.  Two streams run at GOMAXPROCS 1 on 2-shard plain DBs of
// 200 000 dense int64 keys:
//
//   - mixed: 200 000 seeded ops, 50 % Insert, 20 % Delete, 28 % Get and 2 %
//     two-key UpdateAtomicKeys transfers, keys drawn from twice the loaded
//     range;
//   - storm: a View pinned while 50 000 seeded updates commit, then
//     released; three times.
//
// Each reads, over the stream: tree units allocated and freed per op (all
// shards' Ops families), the chunk bytes the arenas and depots carved from
// the heap, as the heap rounds them, the depots' pointer slots at the end,
// runtime mallocs and bytes per op, commits per op, and the peak of
// Uncollected() after any op.  The collector is off while a stream runs, so
// no sync.Pool is emptied under it and every process reads the same
// numbers.  A count above its value in testdata/work.json fails; one below
// is logged, and `go test -run TestWorkCounts -update-work .` writes the
// new values, which the change that lowered them commits.
func TestWorkCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := map[string]map[string]float64{
		"mixed": workStream(t, mixedStream),
		"storm": workStream(t, stormStream),
	}
	path := filepath.Join("testdata", "work.json")
	if *updateWork {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, stream := range slices.Sorted(maps.Keys(got)) {
		for _, name := range slices.Sorted(maps.Keys(got[stream])) {
			g := got[stream][name]
			w, ok := want[stream][name]
			switch {
			case !ok:
				t.Errorf("%s %s: %v, and no golden value", stream, name, g)
			case g > w:
				t.Errorf("%s %s rose: %v, golden %v", stream, name, g, w)
			case g < w:
				t.Logf("%s %s fell: %v, golden %v (update testdata/work.json)", stream, name, g, w)
			default:
				t.Logf("%s %s: %v", stream, name, g)
			}
		}
	}
}

// workDB is the streams' database type.
type workDB = mvgc.DB[int64, int64, struct{}]

// workStream opens a 2-shard DB of workKeys dense keys, runs stream on it
// with the collector off, and returns its counts.  A stream calls after
// once after every op and returns its op count.
func workStream(t *testing.T, stream func(db *workDB, after func()) int) map[string]float64 {
	t.Helper()
	initial := make([]mvgc.Entry[int64, int64], workKeys)
	for i := range initial {
		initial[i] = mvgc.Entry[int64, int64]{Key: int64(i), Val: int64(i)}
	}
	db, err := mvgc.OpenPlainDB(mvgc.DBOptions[int64]{Shards: 2}, initial)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	family := func() (allocs, frees, carved int64, slots int) {
		for i := range db.NumShards() {
			o := shard.Shard(db, i).Ops()
			c, s := o.Footprint()
			allocs, frees, carved, slots = allocs+o.Allocs(), frees+o.Frees(), carved+c, slots+s
		}
		return
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1 runtime.MemStats
	a0, f0, c0, _ := family()
	commits0 := db.Commits()
	runtime.ReadMemStats(&ms0)
	peak := 0
	ops := stream(db, func() { peak = max(peak, db.Uncollected()) })
	runtime.ReadMemStats(&ms1)
	a1, f1, c1, slots := family()
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	return map[string]float64{
		"arena_allocs_per_op":    per(a1 - a0),
		"arena_frees_per_op":     per(f1 - f0),
		"carved_bytes":           float64(c1 - c0),
		"depot_slots":            float64(slots),
		"runtime_mallocs_per_op": per(int64(ms1.Mallocs - ms0.Mallocs)),
		"runtime_bytes_per_op":   per(int64(ms1.TotalAlloc - ms0.TotalAlloc)),
		"commits_per_op":         per(db.Commits() - commits0),
		"peak_uncollected":       float64(peak),
	}
}

// mixedStream is the mixed stream: 200 000 ops, keys drawn from twice the
// loaded range.
func mixedStream(db *workDB, after func()) int {
	const ops = 200_000
	rng := rand.New(rand.NewSource(21))
	keys := make([]int64, 2)
	transfer := func(t *mvgc.DBTxn[int64, int64, struct{}]) {
		a, _ := t.Get(keys[0])
		b, _ := t.Get(keys[1])
		t.Insert(keys[0], a-1)
		t.Insert(keys[1], b+1)
	}
	for i := 0; i < ops; i++ {
		k := rng.Int63n(2 * workKeys)
		switch r := rng.Intn(100); {
		case r < 50:
			db.Insert(k, int64(i)) //nolint:errcheck // an open in-memory DB does not fail
		case r < 70:
			db.Delete(k) //nolint:errcheck
		case r < 98:
			db.Get(k)
		default:
			keys[0], keys[1] = k, rng.Int63n(2*workKeys)
			db.UpdateAtomicKeys(keys, transfer) //nolint:errcheck
		}
		after()
	}
	return ops
}

// stormStream is the storm stream: three storms of 50 000 updates under a
// View pinned on another goroutine, each released before the next pins.
func stormStream(db *workDB, after func()) int {
	const storms, updates = 3, 50_000
	rng := rand.New(rand.NewSource(22))
	for range storms {
		pinned, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			db.View(func(mvgc.DBSnapshot[int64, int64, struct{}]) {
				close(pinned)
				<-release
			})
		}()
		<-pinned
		for range updates {
			db.Insert(rng.Int63n(workKeys), rng.Int63()) //nolint:errcheck
			after()
		}
		close(release)
		<-done
	}
	return storms * updates
}
