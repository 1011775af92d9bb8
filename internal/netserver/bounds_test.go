package netserver

import (
	"strings"
	"testing"

	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
)

// TestScannerLargePage: a Scanner asked for pages larger than one SCANC
// reply can carry fetches netproto.MaxScanPage entries at a time and still
// walks every key in order.
func TestScannerLargePage(t *testing.T) {
	const n = 5000
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	for k := int64(0); k < n; k++ {
		if err := s.DB().Insert(k, -k); err != nil {
			t.Fatal(err)
		}
	}
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := c.Scanner(0, 4096)
	next := int64(0)
	for sc.Next() {
		if e := sc.Entry(); e.Key != next || e.Val != -next {
			t.Fatalf("entry %d = %+v, want key %d", next, e, next)
		}
		next++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("Scanner(0, 4096): %v after %d entries", err, next)
	}
	if next != n {
		t.Fatalf("Scanner(0, 4096) walked %d keys, want %d", next, n)
	}
}

// TestMCASOverFrameBound: an MCAS with more keys than one frame can carry
// fails on the client, before it is encoded, and the connection stays
// usable.
func TestMCASOverFrameBound(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	defer s.Close()
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	most := (netproto.MaxArgs - 1) / 3
	for _, keys := range []int{most, most + 1, 1400} {
		ks, es, ns := make([]int64, keys), make([]int64, keys), make([]int64, keys)
		for i := range ks {
			ks[i], es[i], ns[i] = int64(i), 1, 2 // absent keys: no swap
		}
		ok, err := c.MCAS(ks, es, ns)
		if keys <= most && (ok || err != nil) {
			t.Fatalf("MCAS of %d keys = (%v, %v), want (false, nil)", keys, ok, err)
		}
		if keys > most && (err == nil || !strings.Contains(err.Error(), "frame bound")) {
			t.Fatalf("MCAS of %d keys = (%v, %v), want the frame-bound error", keys, ok, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("PING after an MCAS of %d keys: %v", keys, err)
		}
	}
}
