package netserver

import (
	"bytes"
	"math/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"mvgc/internal/netproto"
)

// primeConn delivers what its peer wrote in reads of prime sizes, cycling,
// so the read loop's frame boundaries land anywhere in its buffer and
// frames straddle every refill and compaction.
type primeConn struct {
	net.Conn
	next int
}

var primes = []int{1, 2, 3, 7, 13, 31, 127, 509, 1021, 4093, 8191, 65521}

func (c *primeConn) Read(p []byte) (int, error) {
	n := primes[c.next%len(primes)]
	c.next++
	return c.Conn.Read(p[:min(n, len(p))])
}

// TestStraddlingFrames pipelines 20 000 mixed GET, SET and MCAS frames at a
// connection that reads them in prime-sized chunks, a few MCAS frames longer
// than the read buffer among them.  Every reply must be the right one, in
// request order: decoded arguments are slices of the read buffer, and they
// must survive the frame being moved to its front or into a larger buffer.
func TestStraddlingFrames(t *testing.T) {
	const (
		frames   = 20000
		getKeys  = 2000    // even keys hold 7k+1000, odd keys are absent; never written
		setBase  = 1 << 40 // SETs write here, out of every GET's way
		mcasBase = 1 << 41 // MCAS keys, whose values the test tracks
		mcasKeys = (netproto.MaxArgs - 1) / 3
	)
	s, err := New(Config{Shards: 2, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := int64(0); k < getKeys; k += 2 {
		if err := s.DB().Insert(k, 7*k+1000); err != nil {
			t.Fatal(err)
		}
	}
	model := make([]int64, mcasKeys)
	for k := range model {
		if err := s.DB().Insert(mcasBase+int64(k), 0); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	value := func() int64 { // lengths from 1 to 20 characters
		v := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	var burst bytes.Buffer
	w := netproto.NewWriter(&burst)
	want := make([]string, 0, frames) // each reply, as reply() renders it
	bigMCAS := 0
	for i := 0; i < frames; i++ {
		switch p := rng.Intn(100); {
		case p < 70:
			k := rng.Int63n(getKeys)
			switch {
			case rng.Intn(4) == 0: // an MCAS key: MCAS runs inline, so never stale
				k = rng.Int63n(mcasKeys)
				want = append(want, "$"+strconv.FormatInt(model[k], 10))
				k += mcasBase
			case k%2 == 0:
				want = append(want, "$"+strconv.FormatInt(7*k+1000, 10))
			default:
				want = append(want, "$nil")
			}
			w.BeginCommand(2)
			w.ArgString(netproto.CmdGet)
			w.ArgInt(k)
		case p < 90:
			w.BeginCommand(3)
			w.ArgString(netproto.CmdSet)
			w.ArgInt(setBase + int64(i))
			w.ArgInt(value())
			want = append(want, "+OK")
		default:
			n := 1 + rng.Intn(8)
			if rng.Intn(50) == 0 {
				n = mcasKeys // ~110 KiB: the read buffer grows for it
				bigMCAS++
			}
			keys := rng.Perm(mcasKeys)[:n]
			swap := rng.Intn(4) != 0
			w.BeginCommand(1 + 3*n)
			w.ArgString(netproto.CmdMCAS)
			news := make([]int64, n)
			for j, k := range keys {
				expect := model[k]
				if !swap && j == n-1 {
					expect++ // one stale expectation fails the whole swap
				}
				news[j] = value()
				w.ArgInt(mcasBase + int64(k))
				w.ArgInt(expect)
				w.ArgInt(news[j])
			}
			if swap {
				for j, k := range keys {
					model[k] = news[j]
				}
				want = append(want, ":1")
			} else {
				want = append(want, ":0")
			}
		}
	}
	w.Flush()
	if bigMCAS == 0 {
		t.Fatal("no MCAS frame longer than the read buffer: change the seed")
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(60 * time.Second))
	s.serveWG.Add(1)
	go s.handle(&primeConn{Conn: srv})
	sent := make(chan error, 1)
	go func() {
		_, err := cli.Write(burst.Bytes())
		sent <- err
	}()
	r := netproto.NewReader(cli)
	var rep netproto.Reply
	for i, w := range want {
		if err := r.ReadReply(&rep); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := reply(&rep); got != w {
			t.Fatalf("reply %d = %s, want %s", i, got, w)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// reply renders a GET, SET or MCAS reply for comparison.
func reply(rep *netproto.Reply) string {
	switch {
	case rep.Kind == netproto.KindBulk && rep.Bulk == nil:
		return "$nil"
	case rep.Kind == netproto.KindBulk:
		return "$" + string(rep.Bulk)
	case rep.Kind == netproto.KindInt:
		return ":" + strconv.FormatInt(rep.Int, 10)
	}
	return string(rep.Kind) + string(rep.Line)
}
