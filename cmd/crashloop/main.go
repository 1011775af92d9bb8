// Command crashloop is the durability torture harness: it runs an mvgcd
// subprocess with a WAL, hammers it with pipelined SETs, kills it with
// SIGKILL mid-burst, restarts it, and verifies the recovered store —
// repeatedly.
//
// Usage:
//
//	go build -o /tmp/mvgcd ./cmd/mvgcd
//	go run ./cmd/crashloop -mvgcd /tmp/mvgcd -rounds 3 -duration 2s
//
// Invariants checked after every crash/restart (exit 1 on violation):
//
//   - Per key, values are written monotonically increasing and each key
//     sticks to one connection, so the recovered value must satisfy
//     lastAcked <= recovered <= lastAttempted: no acked write lost, no
//     invented data.
//   - SUM over the whole key range equals the sum of a full SCAN, and LEN
//     equals the scanned entry count: the augmented tree recovered
//     consistent with its contents.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"mvgc/internal/netclient"
)

var (
	mvgcdBin = flag.String("mvgcd", "mvgcd", "path to the mvgcd binary")
	addr     = flag.String("addr", "127.0.0.1:6391", "address the child serves on")
	walDir   = flag.String("wal", "", "WAL directory (default: a fresh temp dir)")
	rounds   = flag.Int("rounds", 3, "kill/restart cycles")
	conns    = flag.Int("conns", 4, "concurrent pipelined connections")
	keys     = flag.Int("keys", 512, "distinct keys (each owned by one connection)")
	duration = flag.Duration("duration", 2*time.Second, "load time per round before SIGKILL")
	depth    = flag.Int("depth", 64, "pipeline window per connection")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crashloop: "+format+"\n", args...)
	os.Exit(1)
}

// start launches mvgcd and waits until it accepts connections.
func start() *exec.Cmd {
	cmd := exec.Command(*mvgcdBin,
		"-addr", *addr, "-shards", "4",
		"-wal", *walDir, "-wal-fsync", "always")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("start %s: %v", *mvgcdBin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", *addr, 250*time.Millisecond)
		if err == nil {
			nc.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			fatalf("server did not come up on %s", *addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func main() {
	flag.Parse()
	if *walDir == "" {
		dir, err := os.MkdirTemp("", "crashloop-wal-")
		if err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(dir)
		*walDir = dir
	}
	// Per-key bookkeeping, owned by the main goroutine between rounds.
	acked := make([]int64, *keys)     // last value whose +OK arrived
	attempted := make([]int64, *keys) // last value put on the wire
	next := make([]int64, *keys)      // next value to write
	for k := range next {
		next[k] = 1
	}

	for round := 1; round <= *rounds; round++ {
		cmd := start()

		stop := make(chan struct{})
		type connState struct {
			acked, attempted []int64
		}
		results := make(chan connState, *conns)
		for c := 0; c < *conns; c++ {
			go func(c int) {
				st := connState{
					acked:     make([]int64, *keys),
					attempted: make([]int64, *keys),
				}
				defer func() { results <- st }()
				cl, err := netclient.Dial(*addr, *depth)
				if err != nil {
					return
				}
				defer cl.Close()
				// Window of in-flight writes; per-key order is the wire
				// order because each key belongs to exactly one conn.
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
							drain()
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
		close(stop)
		if err := cmd.Process.Kill(); err != nil {
			fatalf("kill: %v", err)
		}
		cmd.Wait()
		for c := 0; c < *conns; c++ {
			st := <-results
			for k := 0; k < *keys; k++ {
				if st.acked[k] > acked[k] {
					acked[k] = st.acked[k]
				}
				if st.attempted[k] > attempted[k] {
					attempted[k] = st.attempted[k]
					next[k] = st.attempted[k] + 1
				}
			}
		}

		// Restart and verify.
		cmd = start()
		cl, err := netclient.Dial(*addr, *depth)
		if err != nil {
			fatalf("round %d: dial after restart: %v", round, err)
		}
		var recoveredSum, scanned int64
		for k := 0; k < *keys; k++ {
			v, ok, err := cl.Get(int64(k))
			if err != nil {
				fatalf("round %d: GET %d: %v", round, k, err)
			}
			switch {
			case !ok && acked[k] > 0:
				fatalf("round %d: key %d lost (acked value %d)", round, k, acked[k])
			case ok && (v < acked[k] || v > attempted[k]):
				fatalf("round %d: key %d = %d outside [acked %d, attempted %d]",
					round, k, v, acked[k], attempted[k])
			}
			if ok {
				recoveredSum += v
				scanned++
				// The recovered value is durable: future writes must
				// stay monotone above it.
				if v >= next[k] {
					next[k] = v + 1
				}
			}
		}
		sum, err := cl.Sum(0, int64(*keys))
		if err != nil {
			fatalf("round %d: SUM: %v", round, err)
		}
		if sum != recoveredSum {
			fatalf("round %d: SUM = %d but GETs total %d: augmentation inconsistent after recovery",
				round, sum, recoveredSum)
		}
		n, err := cl.Len()
		if err != nil {
			fatalf("round %d: LEN: %v", round, err)
		}
		if n != scanned {
			fatalf("round %d: LEN = %d but %d keys present", round, n, scanned)
		}
		stats, err := cl.Stats()
		if err != nil {
			fatalf("round %d: STATS: %v", round, err)
		}
		cl.Close()
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
		fmt.Printf("crashloop: round %d ok: %d keys live, sum %d consistent (%s)\n",
			round, n, sum, stats)
	}
	fmt.Println("crashloop: all rounds passed")
}
