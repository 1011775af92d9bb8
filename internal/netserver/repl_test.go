package netserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mvgc"
	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
	"mvgc/internal/repl"
	"mvgc/internal/wal"
)

// waitFollower polls the follower until key carries val — proof it has
// replayed every log byte the leader appended before that write (the
// stream is in log order).
func waitFollower(t *testing.T, c *netclient.Client, key, val int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok, err := c.Get(key)
		if err != nil {
			t.Fatalf("follower GET: %v", err)
		}
		if ok && v == val {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached key %d = %d (at %d, ok=%v)", key, val, v, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dumpServer scans the full keyspace through the cursor-scan iterator.
func dumpServer(t *testing.T, c *netclient.Client) map[int64]int64 {
	t.Helper()
	got := map[int64]int64{}
	sc := c.Scanner(-1<<62, 97) // odd page size: exercise page boundaries
	for sc.Next() {
		e := sc.Entry()
		got[e.Key] = e.Val
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("cursor scan: %v", err)
	}
	return got
}

// TestFollowerStreamsAndPromotes is the basic replication e2e: a follower
// replays the leader's stream, serves reads but refuses writes, and
// PROMOTE flips it into a writable leader whose stamps never rewind.
func TestFollowerStreamsAndPromotes(t *testing.T) {
	lmem, fmem := wal.NewMemFS(), wal.NewMemFS()
	leader, laddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL: mvgc.WALOptions{Dir: "wal", FS: lmem},
	})
	defer leader.Close()

	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for k := int64(0); k < 100; k++ {
		if err := lc.Set(k, k*3+1); err != nil {
			t.Fatalf("SET %d: %v", k, err)
		}
	}

	follower, faddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL:    mvgc.WALOptions{Dir: "wal", FS: fmem},
		Follow: laddr,
	})
	defer follower.Close()
	fc, err := netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	if err := lc.Set(-1, 42); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, -1, 42)

	// Reads work; the cursor scan agrees with the leader exactly.
	want := dumpServer(t, lc)
	if got := dumpServer(t, fc); len(got) != len(want) {
		t.Fatalf("follower holds %d keys, leader %d", len(got), len(want))
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("follower key %d = %d, leader has %d", k, got[k], v)
			}
		}
	}
	// Writes are refused while following.
	if err := fc.Set(7, 7); err == nil || !strings.Contains(err.Error(), "READONLY") {
		t.Fatalf("follower SET = %v, want READONLY refusal", err)
	}
	if got := statInt(t, mustStats(t, fc), "readonly"); got != 1 {
		t.Fatalf("follower readonly stat = %d, want 1", got)
	}

	// Promote over the wire: writes flow, and the stamp floor means the
	// promoted GSN continues past everything replayed.
	if err := fc.Promote(); err != nil {
		t.Fatalf("PROMOTE: %v", err)
	}
	if got := statInt(t, mustStats(t, fc), "readonly"); got != 0 {
		t.Fatalf("promoted readonly stat = %d, want 0", got)
	}
	preGSN := statInt(t, mustStats(t, fc), "gsn")
	if err := fc.Set(200, 777); err != nil {
		t.Fatalf("SET after PROMOTE: %v", err)
	}
	if v, ok, err := fc.Get(200); err != nil || !ok || v != 777 {
		t.Fatalf("read-own-write after PROMOTE = (%d, %v, %v)", v, ok, err)
	}
	if postGSN := statInt(t, mustStats(t, fc), "gsn"); postGSN <= preGSN || preGSN == 0 {
		t.Fatalf("gsn %d -> %d across promotion: stamps rewound or never advanced", preGSN, postGSN)
	}
}

func mustStats(t *testing.T, c *netclient.Client) string {
	t.Helper()
	s, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	return s
}

// TestFollowerReconnectAndBootstrap: a follower that goes away and comes
// back resumes from its persisted position; when the leader's
// checkpointer has retired the log prefix it needed, it bootstraps from
// the snapshot instead — and in both cases converges to the leader's
// exact contents, including multi-shard atomic (MCAS) writes.
func TestFollowerReconnectAndBootstrap(t *testing.T) {
	lmem, fmem := wal.NewMemFS(), wal.NewMemFS()
	leader, laddr := startServer(t, Config{
		Shards: 4, MaxConns: 4,
		WAL: mvgc.WALOptions{
			Dir: "wal", FS: lmem,
			SegmentBytes:    1 << 10,
			CheckpointBytes: 4 << 10,
		},
	})
	defer leader.Close()
	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	for k := int64(0); k < 64; k++ {
		if err := lc.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}

	followerCfg := Config{
		Shards: 4, MaxConns: 4,
		WAL:    mvgc.WALOptions{Dir: "wal", FS: fmem},
		Follow: laddr,
	}
	follower, faddr := startServer(t, followerCfg)
	fc, err := netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Set(-1, 1); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, -1, 1)
	fc.Close()

	// Follower leaves gracefully (position persisted), then the leader
	// moves on: atomic multi-shard swaps plus enough churn that the
	// checkpointer retires the log prefix the follower's position names.
	if err := follower.Shutdown(); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	if ok, err := lc.MCAS([]int64{1, 2, 3}, []int64{1, 2, 3}, []int64{-10, -20, -30}); err != nil || !ok {
		t.Fatalf("MCAS = (%v, %v)", ok, err)
	}
	for i := int64(0); i < 2000; i++ {
		if err := lc.Set(100+i%128, i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for statInt(t, mustStats(t, lc), "wal_live") > 16<<10 {
		if time.Now().After(deadline) {
			t.Fatal("leader checkpointer never bounded the log")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rebirth from the same directory: the persisted position is stale
	// (retired), so the handshake must fall back to snapshot bootstrap.
	follower, faddr = startServer(t, followerCfg)
	defer follower.Close()
	fc, err = netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := lc.Set(-1, 2); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, -1, 2)

	want := dumpServer(t, lc)
	got := dumpServer(t, fc)
	if len(got) != len(want) {
		t.Fatalf("follower holds %d keys, leader %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("follower key %d = %d, leader has %d (atomic replay torn?)", k, got[k], v)
		}
	}
	for _, k := range []int64{1, 2, 3} {
		if got[k] != -k*10 {
			t.Fatalf("MCAS effect on key %d = %d, want %d", k, got[k], -k*10)
		}
	}
}

// TestFollowerLagAcrossGSNInversion: two shards' commits can sit in the
// leader's log in the opposite order of their GSNs.  The follower's resume
// marker names the LAST frame (here GSN 1), but the lag STATS reports must
// be measured against the highest GSN applied (2): a fully caught-up
// follower reads lag 0.  And a reconnect must still resume after the last
// frame — nothing skipped, nothing shipped twice.
func TestFollowerLagAcrossGSNInversion(t *testing.T) {
	lmem, fmem := wal.NewMemFS(), wal.NewMemFS()
	// One insert op in the redo payload format (tag, length-prefixed
	// 8-byte key and value); appended directly so the inversion is exact.
	insert := func(k, v int64) []byte {
		p := binary.LittleEndian.AppendUint64([]byte{1, 8}, uint64(k))
		return binary.LittleEndian.AppendUint64(append(p, 8), uint64(v))
	}
	log, _, err := wal.Open(wal.Options{Dir: "wal", FS: lmem})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ gsn, k, v int64 }{{2, 20, 200}, {1, 10, 100}} {
		if err := log.Append(uint64(r.gsn), insert(r.k, r.v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// The leader recovers that log, which floors its GSN at 2 and leaves
	// the records in the inverted order it ships them in.
	leader, laddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL: mvgc.WALOptions{Dir: "wal", FS: lmem},
	})
	defer leader.Close()
	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	followerCfg := Config{
		Shards: 2, MaxConns: 4,
		WAL:    mvgc.WALOptions{Dir: "wal", FS: fmem},
		Follow: laddr,
	}
	lag := func(fc *netclient.Client) int64 {
		return statInt(t, mustStats(t, lc), "gsn") - statInt(t, mustStats(t, fc), "repl_pos")
	}
	follower, faddr := startServer(t, followerCfg)
	fc, err := netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, 20, 200)
	waitFollower(t, fc, 10, 100) // the last frame: the follower is caught up
	if l := lag(fc); l != 0 {
		t.Fatalf("caught-up follower reports lag %d, want 0", l)
	}
	fc.Close()
	if err := follower.Shutdown(); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}

	// One more leader write, then rebirth from the persisted position.
	if err := lc.Set(30, 300); err != nil {
		t.Fatal(err)
	}
	follower, faddr = startServer(t, followerCfg)
	fc, err = netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, 30, 300)
	if l := lag(fc); l != 0 {
		t.Fatalf("reconnected follower reports lag %d, want 0", l)
	}
	for k, v := range map[int64]int64{10: 100, 20: 200} {
		if got, ok, err := fc.Get(k); err != nil || !ok || got != v {
			t.Fatalf("after reconnect key %d = (%d, %v, %v), want %d", k, got, ok, err, v)
		}
	}
	fc.Close()
	if err := follower.Shutdown(); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	// The follower relogs exactly what it applies: three records means the
	// reconnect shipped only the new one.
	flog, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fmem})
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("follower log holds %d records, want 3 (a reconnect re-shipped or skipped frames)", len(rec.Records))
	}
}

// TestFollowerCrashMatrix power-cuts the follower's filesystem at a
// sweep of operation indices mid-stream, reopens a follower from the
// surviving bytes, and requires it to converge to the leader exactly —
// the stream position is only persisted after the follower's log syncs,
// so a crash can only force idempotent re-replay, never divergence.
func TestFollowerCrashMatrix(t *testing.T) {
	lmem := wal.NewMemFS()
	leader, laddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL: mvgc.WALOptions{Dir: "wal", FS: lmem},
	})
	defer leader.Close()
	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for k := int64(0); k < 200; k++ {
		if err := lc.Set(k, k*7); err != nil {
			t.Fatal(err)
		}
	}

	for _, crashAt := range []int{5, 20, 60, 120, 400} {
		t.Run(fmt.Sprintf("crash@%d", crashAt), func(t *testing.T) {
			fmem := wal.NewMemFS()
			ffs := wal.NewFaultFS(fmem)
			ffs.Script(crashAt, wal.FaultCrash)
			follower, faddr := startServer(t, Config{
				Shards: 2, MaxConns: 4,
				WAL:    mvgc.WALOptions{Dir: "wal", FS: ffs},
				Follow: laddr,
			})
			// Give the stream time to run into the scripted power cut
			// (or finish, for late crash points), then tear down whatever
			// is left of the server.
			deadline := time.Now().Add(time.Second)
			for !ffs.Crashed() && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			follower.Close()

			// Reopen from the post-crash filesystem image and re-follow.
			follower, faddr = startServer(t, Config{
				Shards: 2, MaxConns: 4,
				WAL:    mvgc.WALOptions{Dir: "wal", FS: fmem},
				Follow: laddr,
			})
			defer follower.Close()
			fc, err := netclient.Dial(faddr, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.Close()
			if err := lc.Set(-1, int64(crashAt)); err != nil {
				t.Fatal(err)
			}
			waitFollower(t, fc, -1, int64(crashAt))
			want := dumpServer(t, lc)
			got := dumpServer(t, fc)
			if len(got) != len(want) {
				t.Fatalf("follower holds %d keys, leader %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("follower key %d = %d, leader has %d", k, got[k], v)
				}
			}
		})
	}
}

// copyFS clones dir of src into a fresh MemFS, every byte durable: the image
// a matrix cell starts from.
func copyFS(t *testing.T, src wal.FS, dir string) *wal.MemFS {
	t.Helper()
	dst := wal.NewMemFS()
	names, err := src.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		in, err := src.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(in)
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		out, err := dst.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := out.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(out.Sync(), out.Close()); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestFollowerBootstrapCrashMatrix power-cuts a follower at EVERY
// filesystem-operation index of a re-bootstrap — reopening its log, installing
// the shipped snapshot, cutting the local checkpoint (temp, rename, fsync),
// retiring what it covers, saving repl.pos — and requires the surviving
// directory to recover to the complete old state or the complete new one,
// never a mix, and a follower reopened on it to converge to the leader.
func TestFollowerBootstrapCrashMatrix(t *testing.T) {
	// A follower that is cut down leaves its shipper holding a connection
	// until the leader next writes to it: room for every cell's.
	leader, laddr := startServer(t, Config{
		Shards: 2, MaxConns: 16,
		WAL: mvgc.WALOptions{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 1 << 10},
	})
	defer leader.Close()
	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	follow := func(fs wal.FS) Config {
		return Config{Shards: 2, MaxConns: 4, WAL: mvgc.WALOptions{Dir: "wal", FS: fs}, Follow: laddr}
	}
	// converged dials a follower and returns once it holds the leader's
	// newest write, with both sides' contents less that marker.
	marker := int64(0)
	converged := func(faddr string) (fc *netclient.Client, got, want map[int64]int64) {
		t.Helper()
		fc, err := netclient.Dial(faddr, 64)
		if err != nil {
			t.Fatal(err)
		}
		marker++
		if err := lc.Set(-1, marker); err != nil {
			t.Fatal(err)
		}
		waitFollower(t, fc, -1, marker)
		got, want = dumpServer(t, fc), dumpServer(t, lc)
		delete(got, -1)
		delete(want, -1)
		return fc, got, want
	}

	// The old state: a follower tails the leader from its first byte and
	// leaves gracefully.
	for k := int64(0); k < 100; k++ {
		if err := lc.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	base := wal.NewMemFS()
	follower, faddr := startServer(t, follow(base))
	fc, _, _ := converged(faddr)
	fc.Close()
	if err := follower.Shutdown(); err != nil {
		t.Fatal(err)
	}
	old := dumpServer(t, lc)
	delete(old, -1)
	// The new state: overwrites, deletes and new keys, then a checkpoint that
	// retires the log the follower's position names.
	for k := int64(0); k < 300; k++ {
		if err := lc.Set(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 100; k += 3 {
		if err := lc.Del(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cut := leader.db.WALStats().SnapshotCut
	fresh := dumpServer(t, lc)
	delete(fresh, -1)

	// One uninterrupted run counts the operations a re-bootstrap takes.
	counting := wal.NewFaultFS(copyFS(t, base, "wal"))
	follower, faddr = startServer(t, follow(counting))
	fc, got, want := converged(faddr)
	if floor := statInt(t, mustStats(t, fc), "repl_floor"); uint64(floor) != cut {
		t.Fatalf("the follower's floor is %d: it did not bootstrap from the checkpoint cut at %d", floor, cut)
	}
	ops := counting.Ops()
	fc.Close()
	follower.Close()
	if !maps.Equal(got, want) {
		t.Fatalf("uninterrupted re-bootstrap: follower holds %d keys, leader %d", len(got), len(want))
	}

	for crashAt := 1; crashAt <= ops; crashAt++ {
		image := copyFS(t, base, "wal")
		ffs := wal.NewFaultFS(image)
		ffs.Script(crashAt, wal.FaultCrash)
		if follower, err := New(follow(ffs)); err == nil { // a cut inside OpenDB fails New
			// As in the counted run, a record follows the snapshot down the
			// stream, so the last cuts land in its replay.
			marker++
			if err := lc.Set(-1, marker); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !ffs.Crashed() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			follower.Close()
		}
		if !ffs.Crashed() {
			t.Logf("crash@%d: this run took fewer operations than the counted one's %d", crashAt, ops)
			continue
		}

		// What the surviving bytes recover to, with nobody following.
		db, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
			Shards: 2, WAL: &mvgc.WALOptions{Dir: "wal", FS: copyFS(t, image, "wal")},
		}, mvgc.SumAug[int64](), nil)
		if err != nil {
			t.Fatalf("crash@%d: reopening the surviving directory: %v", crashAt, err)
		}
		recovered := map[int64]int64{}
		db.View(func(s mvgc.DBSnapshot[int64, int64, int64]) {
			s.ForEachCond(func(k, v int64) bool { recovered[k] = v; return true })
		})
		db.Close()
		delete(recovered, -1)
		if !maps.Equal(recovered, old) && !maps.Equal(recovered, fresh) {
			t.Fatalf("crash@%d: the directory recovers to %d keys: neither the old state (%d) nor the new (%d)",
				crashAt, len(recovered), len(old), len(fresh))
		}

		follower, faddr := startServer(t, follow(image))
		fc, got, want := converged(faddr)
		fc.Close()
		follower.Close()
		if !maps.Equal(got, want) {
			t.Fatalf("crash@%d: the reopened follower holds %d keys, the leader %d", crashAt, len(got), len(want))
		}
	}
}

// TestFollowerBootstrapSmallLog: a follower whose log may hold less than the
// leader's snapshot (WAL.MaxBytes) still bootstraps, because the snapshot
// becomes its checkpoint file, which is not live-log bytes.
func TestFollowerBootstrapSmallLog(t *testing.T) {
	leader, laddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL: mvgc.WALOptions{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 4 << 10},
	})
	defer leader.Close()
	const keys, maxBytes = 8000, 32 << 10
	batch := make([]mvgc.Entry[int64, int64], keys)
	for i := range batch {
		batch[i] = mvgc.Entry[int64, int64]{Key: int64(i), Val: int64(i) * 5}
	}
	for lo := 0; lo < keys; lo += 100 { // many small records: sealed segments to retire
		if err := leader.db.InsertBatch(batch[lo:lo+100], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lc, err := netclient.Dial(laddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	follower, faddr := startServer(t, Config{
		Shards: 2, MaxConns: 4,
		WAL:    mvgc.WALOptions{Dir: "wal", FS: wal.NewMemFS(), SegmentBytes: 4 << 10, MaxBytes: maxBytes},
		Follow: laddr,
	})
	defer follower.Close()
	fc, err := netclient.Dial(faddr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := lc.Set(-1, 1); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, fc, -1, 1)
	stats := mustStats(t, fc)
	if floor, live := statInt(t, stats, "repl_floor"), statInt(t, stats, "wal_live"); floor == 0 || live > maxBytes {
		t.Fatalf("repl_floor %d, wal_live %d: want a bootstrap (floor > 0) inside the %d-byte log bound", floor, live, maxBytes)
	}
	if n, err := fc.Len(); err != nil || n != keys+1 {
		t.Fatalf("follower LEN = (%d, %v), want %d", n, err, keys+1)
	}
	if sum, err := fc.Sum(0, keys); err != nil || sum != 5*keys*(keys-1)/2 {
		t.Fatalf("follower SUM = (%d, %v), want %d", sum, err, 5*keys*(keys-1)/2)
	}
}

// TestReplHandshakeVersion: the stream's grammar is named in the handshake.
// A leader answers the first protocol's REPL <pos> <floor> — and any token
// but its own — with -ERR on a connection that goes on speaking RESP, so an
// old follower retries harmlessly and never misreads a stream; the current
// form gets +OK and then the log's own bytes.
func TestReplHandshakeVersion(t *testing.T) {
	leader, addr := startServer(t, Config{Shards: 1, MaxConns: 4, WAL: mvgc.WALOptions{Dir: "wal", FS: wal.NewMemFS()}})
	defer leader.Close()
	lc, err := netclient.Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.Set(5, 55); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	br, w := bufio.NewReader(nc), netproto.NewWriter(nc)
	handshake := func(args ...string) string {
		t.Helper()
		w.BeginCommand(1 + len(args))
		w.ArgString(netproto.CmdRepl)
		for _, a := range args {
			w.ArgString(a)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		status, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("REPL %v: %v", args, err)
		}
		return status
	}
	for _, old := range [][]string{{"0", "0"}, {"1", "0", "0"}, {repl.Proto + "x", "0", "0"}} {
		if status := handshake(old...); !strings.HasPrefix(status, "-ERR") {
			t.Fatalf("REPL %v answered %q, want -ERR", old, status)
		}
	}
	if status := handshake(repl.Proto, "0", "0"); !strings.HasPrefix(status, "+OK") {
		t.Fatalf("REPL %s 0 0 answered %q, want +OK", repl.Proto, status)
	}
	tag, body, err := repl.ReadFrame(br, nil)
	if err != nil || tag != repl.TagRecord {
		t.Fatalf("first stream frame: tag %q, err %v; want a run of records", tag, err)
	}
	gsn, payload, n, err := wal.NextFrame(body)
	if err != nil || gsn == 0 || len(payload) == 0 || n != len(body) {
		t.Fatalf("the run does not decode as the log's frame: gsn %d, %d-byte payload, %d of %d bytes, err %v", gsn, len(payload), n, len(body), err)
	}
}

// TestScanCursorWire pins the client-side cursor over SCAN pages: paging
// from the key after each page's last visits every entry exactly once in
// order (a resume never returns the key it resumed past), every page but
// the last is full, and Scanner walks the same entries.
func TestScanCursorWire(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 4, MaxConns: 4})
	defer s.Shutdown()
	c, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 533 // deliberately not a multiple of the page size
	for k := int64(0); k < n; k++ {
		if err := c.Set(k*2, k); err != nil {
			t.Fatal(err)
		}
	}

	var pages, seen int
	last := int64(-1)
	for lo := int64(0); ; lo = last + 1 {
		page, err := c.Scan(lo, 100)
		if err != nil {
			t.Fatalf("SCAN: %v", err)
		}
		pages++
		for _, e := range page {
			if e.Key <= last {
				t.Fatalf("cursor went backwards: %d after %d", e.Key, last)
			}
			if e.Val != e.Key/2 {
				t.Fatalf("entry %d = %d, want %d", e.Key, e.Val, e.Key/2)
			}
			last = e.Key
			seen++
		}
		if len(page) < 100 {
			break
		}
	}
	if seen != n {
		t.Fatalf("cursor visited %d entries, want %d", seen, n)
	}
	if pages != n/100+1 {
		t.Fatalf("%d pages for %d entries at page size 100, want %d", pages, n, n/100+1)
	}

	// The iterator agrees, entry for entry.
	sc := c.Scanner(0, 100)
	next := int64(0)
	for sc.Next() {
		if e := sc.Entry(); e.Key != 2*next || e.Val != next {
			t.Fatalf("Scanner entry %d = %+v, want key %d", next, e, 2*next)
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("Scanner visited %d entries, want %d", next, n)
	}
}

// TestScanCursorBoundedStaleness pins what sets a paged Scanner walk apart
// from one frozen snapshot: every page pins afresh, so writes landing AHEAD
// of the cursor between pages are observed, writes landing BEHIND it are
// never revisited, and keys stream strictly increasing throughout.
func TestScanCursorBoundedStaleness(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 4, MaxConns: 4})
	defer s.Shutdown()
	c, err := netclient.Dial(addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := int64(0); k < 100; k++ {
		if err := c.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Pages of 10 over keys 0..99 end at 9, 19, ...; 59 ends a page the
	// Scanner has fetched whole, and the next is fetched only after the
	// writes below: -5 is behind the cursor, 90 and 500 are ahead of it.
	var got []int64
	sc := c.Scanner(0, 10)
	for sc.Next() {
		k := sc.Entry().Key
		got = append(got, k)
		if k == 59 {
			if err := c.Set(-5, 1); err != nil { // behind: never visited
				t.Fatal(err)
			}
			if err := c.Set(500, 1); err != nil { // ahead: must be visited
				t.Fatal(err)
			}
			if err := c.Del(90); err != nil { // ahead: must not be visited
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i, k := range got {
		if i > 0 && k <= got[i-1] {
			t.Fatalf("keys not strictly increasing: %d after %d", k, got[i-1])
		}
		seen[k] = true
	}
	if seen[-5] {
		t.Fatal("walk went backwards: visited a key set behind the cursor")
	}
	if seen[90] {
		t.Fatal("walk visited a key deleted ahead of the cursor")
	}
	if !seen[500] {
		t.Fatal("walk missed a key set ahead of the cursor (staleness not bounded)")
	}
	if len(got) != 100 { // 0..89, 91..99, 500
		t.Fatalf("visited %d keys, want 100", len(got))
	}
}
