// Command replloop is the replication failover torture harness: it runs
// a leader mvgcd (WAL + background checkpointer) and a follower mvgcd
// (-follow), hammers the leader with pipelined SETs, SIGKILLs it, promotes
// the follower, verifies the promoted store, and swaps roles — repeatedly.
// The final round quiesces the load and waits for the follower to catch
// up before the kill, so every leader-acked write must be readable on the
// promoted follower, exactly.
//
// Usage:
//
//	go build -o /tmp/mvgcd ./cmd/mvgcd
//	go run ./cmd/replloop -mvgcd /tmp/mvgcd -rounds 3 -duration 2s
//
// Invariants checked per round (exit 1 on violation):
//
//   - Mid-load kill: per key, the promoted follower's value lies in
//     [baseline, lastAttempted] — it replayed a prefix of the leader's
//     log that includes everything up to the round's start barrier, and
//     invented nothing.  (Shipping is asynchronous, so a mid-burst kill
//     may legitimately lose acked-but-unshipped tail writes.)
//   - Quiesced kill (final round): per key, the promoted follower's
//     value EQUALS the last leader-acked value — the catch-up barrier
//     (a sentinel write observed through the stream) proves every
//     earlier log byte arrived.
//   - The promoted follower's cursor scan (SCANC pages) agrees with SUM
//     and LEN, and it accepts writes after PROMOTE.
//
// Role swap after each kill: the promoted follower is the next round's
// leader; the dead leader's directory is wiped and a fresh follower
// boots from the new leader's checkpoint stream — exercising the
// snapshot-bootstrap path whenever the checkpointer has retired log.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mvgc/internal/netclient"
)

var (
	mvgcdBin  = flag.String("mvgcd", "mvgcd", "path to the mvgcd binary")
	addrA     = flag.String("addr-a", "127.0.0.1:6394", "first server address")
	addrB     = flag.String("addr-b", "127.0.0.1:6395", "second server address")
	rounds    = flag.Int("rounds", 3, "kill/promote cycles (the last is quiesced)")
	conns     = flag.Int("conns", 4, "concurrent pipelined connections")
	keys      = flag.Int("keys", 512, "distinct keys (each owned by one connection)")
	duration  = flag.Duration("duration", 2*time.Second, "load time per round before SIGKILL")
	depth     = flag.Int("depth", 64, "pipeline window per connection")
	ckptBytes = flag.Int64("checkpoint-bytes", 256<<10, "leader checkpointer byte trigger")
)

const sentinelKey = -1 // outside the load key range [0, keys)

// statInt extracts one counter from a STATS reply.
func statInt(stats, key string) int64 {
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				fatalf("STATS field %q: %v", f, err)
			}
			return n
		}
	}
	fatalf("STATS reply %q lacks %q", stats, key)
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replloop: "+format+"\n", args...)
	os.Exit(1)
}

// start launches one mvgcd and waits until it accepts connections.
func start(addr, dir, follow string) *exec.Cmd {
	args := []string{
		"-addr", addr, "-shards", "4",
		"-wal", dir, "-wal-fsync", "always",
		"-wal-segment-bytes", fmt.Sprint(32 << 10),
		"-checkpoint-bytes", fmt.Sprint(*ckptBytes),
	}
	if follow != "" {
		args = append(args, "-follow", follow)
	}
	cmd := exec.Command(*mvgcdBin, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("start %s: %v", *mvgcdBin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			nc.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			fatalf("server did not come up on %s", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// barrier writes a sentinel to the leader and polls the follower until it
// appears — proof the follower has replayed every log byte appended
// before the sentinel (the stream is in log order).
func barrier(leaderAddr, followerAddr string, val int64) {
	cl, err := netclient.Dial(leaderAddr, 1)
	if err != nil {
		fatalf("barrier: dial leader: %v", err)
	}
	if err := cl.Set(sentinelKey, val); err != nil {
		fatalf("barrier: sentinel write: %v", err)
	}
	cl.Close()
	fcl, err := netclient.Dial(followerAddr, 1)
	if err != nil {
		fatalf("barrier: dial follower: %v", err)
	}
	defer fcl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok, err := fcl.Get(sentinelKey)
		if err != nil {
			fatalf("barrier: follower GET: %v", err)
		}
		if ok && v == val {
			return
		}
		if time.Now().After(deadline) {
			fatalf("follower %s never caught up to sentinel %d (at %d, ok=%v)", followerAddr, val, v, ok)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func main() {
	flag.Parse()
	dirA, err := os.MkdirTemp("", "replloop-a-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "replloop-b-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dirB)

	// Per-key bookkeeping, owned by the main goroutine between rounds.
	baseline := make([]int64, *keys)  // value verified on the last promoted follower
	acked := make([]int64, *keys)     // last value whose +OK arrived this round
	attempted := make([]int64, *keys) // last value put on the wire, ever
	next := make([]int64, *keys)      // next value to write
	for k := range next {
		next[k] = 1
	}

	leaderAddr, followerAddr := *addrA, *addrB
	leaderDir, followerDir := dirA, dirB
	leader := start(leaderAddr, leaderDir, "")
	follower := start(followerAddr, followerDir, leaderAddr)
	sentinel := int64(0)

	for round := 1; round <= *rounds; round++ {
		final := round == *rounds
		sentinel++
		barrier(leaderAddr, followerAddr, sentinel)

		stop := make(chan struct{})
		type connState struct {
			acked, attempted []int64
			clean            bool // drained without transport errors
		}
		results := make(chan connState, *conns)
		for c := 0; c < *conns; c++ {
			go func(c int) {
				st := connState{
					acked:     make([]int64, *keys),
					attempted: make([]int64, *keys),
				}
				defer func() { results <- st }()
				cl, err := netclient.Dial(leaderAddr, *depth)
				if err != nil {
					return
				}
				defer cl.Close()
				type inflight struct {
					key int
					val int64
					p   *netclient.Pending
				}
				window := make([]inflight, 0, *depth)
				drain := func() bool {
					if err := cl.Flush(); err != nil {
						return false
					}
					ok := true
					for _, in := range window {
						if in.p.Err() == nil {
							st.acked[in.key] = in.val
						} else {
							ok = false
						}
					}
					window = window[:0]
					return ok
				}
				vals := make([]int64, *keys)
				for k := c; k < *keys; k += *conns {
					vals[k] = next[k]
				}
				for k := c; ; k += *conns {
					if k >= *keys {
						k = c
						select {
						case <-stop:
							st.clean = drain()
							return
						default:
						}
					}
					v := vals[k]
					vals[k]++
					st.attempted[k] = v
					window = append(window, inflight{key: k, val: v, p: cl.SetAsync(int64(k), v)})
					if len(window) == *depth {
						if !drain() {
							return
						}
					}
				}
			}(c)
		}

		time.Sleep(*duration)
		if final {
			// Quiesce: stop the load cleanly, then prove the follower has
			// everything before the kill.
			close(stop)
			collect := func() {
				for c := 0; c < *conns; c++ {
					st := <-results
					if !st.clean {
						fatalf("round %d: load failed during quiesced round", round)
					}
					for k := 0; k < *keys; k++ {
						acked[k] = max(acked[k], st.acked[k])
						if st.attempted[k] > attempted[k] {
							attempted[k] = st.attempted[k]
							next[k] = st.attempted[k] + 1
						}
					}
				}
			}
			collect()
			sentinel++
			barrier(leaderAddr, followerAddr, sentinel)
			// Checkpoint-scheduling acceptance: once quiet, the leader's
			// retained log must converge under 2x the checkpoint bound.
			lcl, err := netclient.Dial(leaderAddr, 1)
			if err != nil {
				fatalf("dial leader for wal bound: %v", err)
			}
			deadline := time.Now().Add(15 * time.Second)
			for {
				stats, err := lcl.Stats()
				if err != nil {
					fatalf("leader STATS: %v", err)
				}
				live := statInt(stats, "wal_live")
				if live < 2**ckptBytes {
					break
				}
				if time.Now().After(deadline) {
					fatalf("leader wal_live=%d never fell under 2x checkpoint bound %d", live, 2**ckptBytes)
				}
				time.Sleep(25 * time.Millisecond)
			}
			lcl.Close()
		} else {
			// Kill mid-burst, then let the load goroutines fail out.
			close(stop)
		}
		if err := leader.Process.Kill(); err != nil {
			fatalf("kill leader: %v", err)
		}
		leader.Wait()
		if !final {
			for c := 0; c < *conns; c++ {
				st := <-results
				for k := 0; k < *keys; k++ {
					acked[k] = max(acked[k], st.acked[k])
					if st.attempted[k] > attempted[k] {
						attempted[k] = st.attempted[k]
						next[k] = st.attempted[k] + 1
					}
				}
			}
		}

		// Promote the follower and verify it.
		cl, err := netclient.Dial(followerAddr, *depth)
		if err != nil {
			fatalf("round %d: dial follower: %v", round, err)
		}
		if err := cl.Promote(); err != nil {
			fatalf("round %d: PROMOTE: %v", round, err)
		}
		var scanSum, scanned int64
		recovered := make([]int64, *keys)
		sc := cl.Scanner(0, 128)
		for sc.Next() {
			e := sc.Entry()
			if e.Key < 0 || e.Key >= int64(*keys) {
				continue
			}
			recovered[e.Key] = e.Val
			scanSum += e.Val
			scanned++
		}
		if err := sc.Err(); err != nil {
			fatalf("round %d: cursor scan: %v", round, err)
		}
		for k := 0; k < *keys; k++ {
			v := recovered[k]
			switch {
			case final && v != max(baseline[k], acked[k]):
				fatalf("round %d: key %d = %d on promoted follower, want exactly %d (quiesced)",
					round, k, v, max(baseline[k], acked[k]))
			case v < baseline[k] || v > attempted[k]:
				fatalf("round %d: key %d = %d outside [baseline %d, attempted %d]",
					round, k, v, baseline[k], attempted[k])
			}
			baseline[k] = v
			if v >= next[k] {
				next[k] = v + 1
			}
			acked[k] = 0
		}
		sum, err := cl.Sum(0, int64(*keys))
		if err != nil {
			fatalf("round %d: SUM: %v", round, err)
		}
		if sum != scanSum {
			fatalf("round %d: SUM = %d but cursor scan totals %d", round, sum, scanSum)
		}
		n, err := cl.Len()
		if err != nil {
			fatalf("round %d: LEN: %v", round, err)
		}
		if n != scanned+1 { // +1 for the sentinel key
			fatalf("round %d: LEN = %d but %d keys present (+1 sentinel)", round, n, scanned)
		}
		// The promoted follower must accept writes with stamps that never
		// rewind: a fresh write must be visible immediately.
		if err := cl.Set(sentinelKey, sentinel+500); err != nil {
			fatalf("round %d: write after PROMOTE: %v", round, err)
		}
		if v, ok, err := cl.Get(sentinelKey); err != nil || !ok || v != sentinel+500 {
			fatalf("round %d: read-own-write after PROMOTE: v=%d ok=%v err=%v", round, v, ok, err)
		}
		sentinel += 500
		stats, _ := cl.Stats()
		cl.Close()
		fmt.Printf("replloop: round %d ok (final=%v): %d keys live, sum %d (%s)\n",
			round, final, scanned, sum, stats)

		if final {
			follower.Process.Signal(os.Interrupt)
			follower.Wait()
			break
		}
		// Role swap: the promoted follower leads; the dead leader's
		// directory is wiped and reborn as a fresh follower, which must
		// bootstrap from the new leader's snapshot when the checkpointer
		// has retired the log prefix.
		if err := os.RemoveAll(leaderDir); err != nil {
			fatalf("wipe %s: %v", leaderDir, err)
		}
		leader = follower
		leaderAddr, followerAddr = followerAddr, leaderAddr
		leaderDir, followerDir = followerDir, leaderDir
		follower = start(followerAddr, followerDir, leaderAddr)
	}
	fmt.Println("replloop: all rounds passed")
}
