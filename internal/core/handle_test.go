package core

import (
	"strings"
	"testing"

	"mvgc/internal/ftree"
)

// TestNewMapErrorReporting: the resolved algorithm name appears in the
// unknown-algorithm error (not the raw, possibly empty, config string) and
// Procs is validated at both ends.
func TestNewMapErrorReporting(t *testing.T) {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	if _, err := NewMap(Config{Algorithm: "nope", Procs: 2}, ops, nil); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown algorithm error = %v, want the resolved name quoted", err)
	}
	if _, err := NewMap(Config{Procs: 0}, ops, nil); err == nil {
		t.Fatal("Procs=0 accepted")
	}
	if _, err := NewMap(Config{Procs: 1 << 20}, ops, nil); err == nil {
		t.Fatal("absurd Procs accepted (would overflow the version index)")
	}
	if live := ops.Live(); live != 0 {
		t.Fatalf("failed constructors leaked %d nodes", live)
	}
	// The default algorithm resolves to pswf, and an empty Algorithm in
	// the config must not produce a confusing "" in any error path.
	m, err := NewMap(Config{Procs: 1}, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm() != "pswf" {
		t.Fatalf("default algorithm = %q", m.Algorithm())
	}
	m.Close()
}
