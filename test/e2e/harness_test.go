// Package e2e drives the real mvgcd binary as a black box: it builds
// ./cmd/mvgcd once, serves it on free loopback ports, loads it with
// pipelined SETs from several connections, SIGKILLs it, and checks what a
// restarted server or a promoted follower holds.  The tests skip under
// -short; run them with
//
//	go test ./test/e2e
//	go test -race -count=5 ./test/e2e
//
// and the binary is built with -race when the test binary is.
package e2e

import (
	"bufio"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvgc/internal/netclient"
)

// The one configuration every server and every load runs with.
const (
	shards     = 4
	conns      = 4 // load connections; connection c owns the keys k ≡ c (mod conns)
	nKeys      = 512
	depth      = 64 // SETs in flight per connection
	segBytes   = 32 << 10
	ckptBytes  = 256 << 10
	loadTime   = 500 * time.Millisecond
	sentinel   = -1 // a key outside the load's [0, nKeys)
	upDeadline = 30 * time.Second
)

// mvgcd is the binary TestMain builds.
var mvgcd string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "mvgc-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mvgcd = filepath.Join(dir, "mvgcd")
	args := []string{"build", "-o", mvgcd}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	build := exec.Command("go", append(args, "mvgc/cmd/mvgcd")...)
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building mvgcd:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var inputs sync.Once

// setup skips the test under -short.  Otherwise it lists every directory of
// the module once, which go test records as the package's inputs: mvgcd is
// not in the test binary's import graph, so without them a cached result
// would outlive a change to the server.
func setup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds, loads and kills mvgcd processes")
	}
	inputs.Do(func() {
		filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
			if d != nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
				return filepath.SkipDir
			}
			return err
		})
	})
}

// server is one mvgcd child process.
type server struct {
	addr, dir string
	cmd       *exec.Cmd
}

// start runs mvgcd with its log in dir, following leader unless that is
// "", on a free loopback port it reads from the "serving on" line.  The
// test's cleanup kills it; so does the kernel if the test process dies.
func start(t *testing.T, dir, leader string) *server {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-shards", strconv.Itoa(shards),
		"-wal", dir, "-wal-fsync", "always",
		"-wal-segment-bytes", strconv.Itoa(segBytes), "-checkpoint-bytes", strconv.Itoa(ckptBytes)}
	if leader != "" {
		args = append(args, "-follow", leader)
	}
	s := &server{dir: dir, cmd: exec.Command(mvgcd, args...)}
	s.cmd.SysProcAttr = childAttr()
	s.cmd.Stderr = os.Stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.kill)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "mvgcd: serving on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
	}()
	select {
	case s.addr = <-addr:
	case <-time.After(upDeadline):
	}
	if s.addr == "" {
		t.Fatalf("mvgcd %v did not serve", args)
	}
	return s
}

// kill SIGKILLs the server and reaps it; a second call does nothing.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

func dial(t *testing.T, addr string) *netclient.Client {
	t.Helper()
	cl, err := netclient.Dial(addr, depth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// ledger is the load's per-key record.  Values rise by one per write, so
// the next value of key k is attempted[k]+1, and a value that a server
// holds tells which write of the key it was.
type ledger struct {
	acked     [nKeys]int64 // the last value whose +OK arrived
	attempted [nKeys]int64 // the last value sent
}

// load writes to addr from conns connections for d, each walking its own
// keys in windows of window pipelined SETs.  Then it tells them to stop,
// runs halt (a kill, or nil to let them finish their pass and drain), and
// returns once all are done: true if every connection drained without an
// error.  With d = 0 each connection writes each of its keys once.
func (l *ledger) load(addr string, window int, d time.Duration, halt func()) bool {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Bool
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.conn(addr, c, window, stop) {
				failed.Store(true)
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	if halt != nil {
		halt()
	}
	wg.Wait()
	return !failed.Load()
}

// conn is load's connection c.  Only it touches its keys' entries, so the
// connections share l without a lock.
func (l *ledger) conn(addr string, c, window int, stop <-chan struct{}) bool {
	cl, err := netclient.Dial(addr, depth)
	if err != nil {
		return false
	}
	defer cl.Close()
	type inflight struct {
		key int
		val int64
		p   *netclient.Pending
	}
	inflights := make([]inflight, 0, window)
	drain := func() bool {
		ok := cl.Flush() == nil
		for _, in := range inflights {
			if in.p.Err() == nil {
				l.acked[in.key] = in.val
			} else {
				ok = false
			}
		}
		inflights = inflights[:0]
		return ok
	}
	for k := c; ; k += conns {
		if k >= nKeys {
			k = c
			select {
			case <-stop:
				return drain()
			default:
			}
		}
		l.attempted[k]++
		v := l.attempted[k]
		inflights = append(inflights, inflight{k, v, cl.SetAsync(int64(k), v)})
		if len(inflights) == window && !drain() {
			return false
		}
	}
}

// verify reads the load's keys on cl twice, by a paged SCAN and by
// pipelined GETs, and fails the test unless the two agree, each key's
// value (0 when absent) lies in [lo[k], hi[k]], SUM over the keys equals
// their total and LEN counts the keys present plus extra.  It returns the
// values.
func verify(t *testing.T, cl *netclient.Client, lo, hi []int64, extra int64) []int64 {
	t.Helper()
	got := make([]int64, nKeys)
	var total, present int64
	sc := cl.Scanner(0, 128)
	for sc.Next() {
		e := sc.Entry()
		if e.Key >= nKeys {
			t.Fatalf("SCAN read key %d, never written", e.Key)
		}
		got[e.Key] = e.Val
		total += e.Val
		present++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SCAN: %v", err)
	}
	gets := make([]*netclient.Pending, nKeys)
	for k := range gets {
		gets[k] = cl.GetAsync(int64(k))
	}
	cl.Flush()
	for k, p := range gets {
		v, _, err := p.Value()
		switch {
		case err != nil:
			t.Fatalf("GET %d: %v", k, err)
		case v != got[k]:
			t.Fatalf("GET %d = %d but SCAN read %d", k, v, got[k])
		case v < lo[k] || v > hi[k]:
			t.Fatalf("key %d = %d outside [%d, %d]", k, v, lo[k], hi[k])
		}
	}
	if sum, err := cl.Sum(0, nKeys); err != nil || sum != total {
		t.Fatalf("SUM = %d (%v) but the keys total %d", sum, err, total)
	}
	if n, err := cl.Len(); err != nil || n != present+extra {
		t.Fatalf("LEN = %d (%v) but %d keys are present (+%d)", n, err, present, extra)
	}
	return got
}

// stat reads one counter from the server's STATS reply.
func stat(t *testing.T, cl *netclient.Client, key string) int64 {
	t.Helper()
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				return n
			}
		}
	}
	t.Fatalf("STATS %q has no %s", stats, key)
	return 0
}

// eventually polls cond every 25 ms until it holds, and fails the test
// with what after upDeadline.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(upDeadline); !cond(); time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, upDeadline)
		}
	}
}
