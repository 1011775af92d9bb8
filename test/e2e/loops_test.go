package e2e

import (
	"os"
	"testing"
)

// TestCrashLoop: an acked write survives a SIGKILL.  Each round loads a
// server for loadTime, SIGKILLs it mid-burst, restarts it on the same log
// and checks that every key holds a value between its last acknowledged and
// its last attempted write (no acked write lost, nothing invented), and that
// SUM and LEN agree with the contents: the augmented tree recovered
// consistent with its entries.
func TestCrashLoop(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	var l ledger
	for round := 1; round <= 2; round++ {
		s := start(t, dir, "")
		l.load(s.addr, depth, loadTime, s.kill)
		unacked := 0
		for k := range nKeys {
			if l.attempted[k] > l.acked[k] {
				unacked++
			}
		}
		s = start(t, dir, "")
		verify(t, dial(t, s.addr), l.acked[:], l.attempted[:], 0)
		s.kill()
		t.Logf("round %d: recovered within [acked, attempted]; %d keys had a write in flight at the kill", round, unacked)
	}
}

// TestFailoverLoop: a promoted follower holds every write the leader acked
// before a quiesced kill.  A leader ships its log to a follower under load;
// each round the leader is SIGKILLed and the follower PROMOTEd and checked,
// then the promoted follower leads the next round and the dead leader's
// directory, wiped, boots a fresh follower from it — from its checkpoint
// once the log has been retired.  A round starts once a sentinel write has
// reached the follower.  The checks, every round:
//
//   - after a mid-burst kill each key lies in [baseline, attempted], the
//     baseline being what the previous promoted follower held: shipping is
//     asynchronous, so acked writes that were not yet shipped may be lost;
//   - on the last round the load stops and writes each key once more, a
//     second sentinel reaches the follower and the leader's live log falls
//     under twice its checkpoint bytes before the kill, and each key is
//     exactly max(baseline, acked);
//   - the paged SCAN, the GETs, SUM and LEN agree (LEN counts the sentinel);
//   - the promoted follower accepts a write and reads it back.
func TestFailoverLoop(t *testing.T) {
	setup(t)
	const rounds = 3
	leader := start(t, t.TempDir(), "")
	follower := start(t, t.TempDir(), leader.addr)
	var l ledger
	var baseline [nKeys]int64
	mark := int64(0)
	barrier := func() {
		mark++
		if err := dial(t, leader.addr).Set(sentinel, mark); err != nil {
			t.Fatalf("sentinel write: %v", err)
		}
		fcl := dial(t, follower.addr)
		eventually(t, "the follower reads the sentinel", func() bool {
			v, _, err := fcl.Get(sentinel)
			return err == nil && v == mark
		})
		t.Logf("the follower reads sentinel %d; its newest snapshot cut is GSN %d", mark, stat(t, fcl, "repl_floor"))
	}
	for round := 1; round <= rounds; round++ {
		quiesced := round == rounds
		barrier()
		clear(l.acked[:])
		lo, hi := baseline[:], l.attempted[:]
		if quiesced {
			// The load drains, then writes each key once more on its own,
			// so the values checked come from nKeys separate log records.
			if !l.load(leader.addr, depth, loadTime, nil) || !l.load(leader.addr, 1, 0, nil) {
				t.Fatalf("round %d: the load failed before the kill", round)
			}
			barrier()
			lcl := dial(t, leader.addr)
			eventually(t, "the leader's wal_live falls under 2 × checkpoint bytes", func() bool {
				return stat(t, lcl, "wal_live") < 2*ckptBytes
			})
			leader.kill()
			exact := make([]int64, nKeys)
			for k := range exact {
				exact[k] = max(baseline[k], l.acked[k])
			}
			lo, hi = exact, exact
		} else {
			l.load(leader.addr, depth, loadTime, leader.kill)
		}
		cl := dial(t, follower.addr)
		if err := cl.Promote(); err != nil {
			t.Fatalf("round %d: PROMOTE: %v", round, err)
		}
		copy(baseline[:], verify(t, cl, lo, hi, 1))
		mark += 500
		if err := cl.Set(sentinel, mark); err != nil {
			t.Fatalf("round %d: write after PROMOTE: %v", round, err)
		}
		if v, ok, err := cl.Get(sentinel); err != nil || !ok || v != mark {
			t.Fatalf("round %d: read after PROMOTE = %d, %v, %v; want %d", round, v, ok, err, mark)
		}
		t.Logf("round %d (quiesced %v): the promoted follower holds the load", round, quiesced)
		if quiesced {
			break
		}
		if err := os.RemoveAll(leader.dir); err != nil {
			t.Fatal(err)
		}
		leader, follower = follower, start(t, leader.dir, follower.addr)
	}
}
