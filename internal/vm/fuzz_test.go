package vm

import "testing"

// The sequential fuzzers leave rcu out: its release waits for readers that
// other processes still hold, and no sequential history can release them.

// FuzzPSWFSequential decodes fuzz input into a sequential operation
// history over pswf or pslf (the first byte chooses) and checks it against
// the sequential specification, exact releases included, plus exactly-once
// collection.  Run long with `go test -fuzz FuzzPSWFSequential ./internal/vm`.
func FuzzPSWFSequential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		name := []string{"pswf", "pslf"}[data[0]%2]
		checkHistory(t, New(name, 3, &payload{id: 0}), data[1:], true)
	})
}

// FuzzSBGCSequential runs each history on sbgc, hp, epoch and base and
// checks the safety half of the specification (they are imprecise, so
// unlike FuzzPSWFSequential it cannot demand exact releases): a release may
// return only versions that are not current, held by nobody, and never
// returned before — and the releases plus Drain return every version that
// entered the system exactly once.
func FuzzSBGCSequential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0, 0x80, 0, 1, 0, 0x80, 0, 2, 0x81, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"sbgc", "hp", "epoch", "base"} {
			checkHistory(t, New(name, 3, &payload{id: 0}), data, false)
		}
	})
}

// checkHistory decodes data into a sequential history on m: byte b moves
// process b%3 one step through acquire → [set, if b has bit 7] → release.
// precise demands that each release return exactly the version it made
// dead; otherwise a release may return any dead versions.
func checkHistory(t *testing.T, m Maintainer[payload], data []byte, precise bool) {
	procs := m.Procs()
	current := uint64(0)
	nextID := uint64(1)
	created := map[uint64]bool{0: true}
	held := map[int]uint64{}
	holders := map[uint64]int{}
	returned := map[uint64]bool{}
	phase := make([]int, procs)
	collect := func(op string, out []*payload) {
		for _, f := range out {
			if !created[f.id] || returned[f.id] {
				t.Fatalf("%s: %s returned version %d, never installed or returned before", m.Name(), op, f.id)
			}
			returned[f.id] = true
		}
	}
	release := func(k int) {
		v := held[k]
		delete(held, k)
		holders[v]--
		if holders[v] == 0 {
			delete(holders, v)
		}
		out := m.ReleaseInto(k, nil)
		if precise {
			var want []uint64
			if v != current && holders[v] == 0 && !returned[v] {
				want = []uint64{v}
			}
			if got := ids(out); len(got) != len(want) || len(got) == 1 && got[0] != want[0] {
				t.Fatalf("%s: release(%d) = %v, want %v", m.Name(), k, got, want)
			}
		}
		for _, f := range out {
			if f.id == current || holders[f.id] > 0 {
				t.Fatalf("%s: release(%d) returned live version %d", m.Name(), k, f.id)
			}
		}
		collect("release", out)
	}
	for _, b := range data {
		k := int(b) % procs
		switch phase[k] {
		case 0:
			got := m.Acquire(k)
			if got.id != current {
				t.Fatalf("%s: acquire(%d) = %d, current %d", m.Name(), k, got.id, current)
			}
			held[k] = got.id
			holders[got.id]++
			phase[k] = 1
		case 1:
			if b&0x80 != 0 {
				ok := m.Set(k, &payload{id: nextID})
				if want := held[k] == current; ok != want {
					t.Fatalf("%s: set(%d) = %v, want %v", m.Name(), k, ok, want)
				}
				if ok {
					current = nextID
					created[nextID] = true
				}
				nextID++
				phase[k] = 2
			} else {
				release(k)
				phase[k] = 0
			}
		case 2:
			release(k)
			phase[k] = 0
		}
	}
	// Quiesced: Drain hands back the rest, the held versions included.
	collect("drain", m.Drain())
	if len(returned) != len(created) {
		t.Fatalf("%s: %d versions returned of %d installed", m.Name(), len(returned), len(created))
	}
}
