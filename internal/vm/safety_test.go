package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSequentialSafetyAll runs random sequential histories against
// every algorithm and checks the safety half of the specification, which
// even the imprecise algorithms must satisfy: a Release may return only
// versions that are (a) not current, (b) held by no process, and (c) never
// returned before.  Liveness/precision is checked separately for the
// precise algorithms (TestSequentialModelEquivalence); RCU histories avoid
// release-after-set while another process holds, since RCU blocks there by
// design.
func TestQuickSequentialSafetyAll(t *testing.T) {
	for _, name := range allNames {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				const procs = 4
				rng := rand.New(rand.NewSource(seed))
				m := newMaintainer(t, name, procs, &payload{id: 0})
				current := uint64(0)
				held := map[int]uint64{}
				holders := map[uint64]int{}
				returned := map[uint64]bool{}
				nextID := uint64(1)
				phase := make([]int, procs) // 0 idle, 1 held, 2 set-done
				checkReleased := func(out []*payload, k int, v uint64) bool {
					for _, f := range out {
						if f.id == current {
							t.Logf("%s: released current version %d", name, f.id)
							return false
						}
						if holders[f.id] > 0 {
							t.Logf("%s: released held version %d", name, f.id)
							return false
						}
						if returned[f.id] {
							t.Logf("%s: version %d returned twice", name, f.id)
							return false
						}
						returned[f.id] = true
					}
					return true
				}
				for step := 0; step < 3000; step++ {
					k := rng.Intn(procs)
					switch phase[k] {
					case 0:
						got := m.Acquire(k)
						if got.id != current {
							t.Logf("%s: acquired %d, current %d", name, got.id, current)
							return false
						}
						held[k] = got.id
						holders[got.id]++
						phase[k] = 1
					case 1:
						doSet := rng.Intn(2) == 0
						if name == "rcu" && doSet && len(held) != 1 {
							// An RCU writer's release synchronizes against
							// every other read-side critical section; on a
							// single goroutine a Set is only safe when the
							// setter is the sole holder.
							doSet = false
						}
						if doSet {
							p := &payload{id: nextID}
							ok := m.Set(k, p)
							wantOK := held[k] == current
							if ok != wantOK {
								t.Logf("%s: Set=%v want %v", name, ok, wantOK)
								return false
							}
							if ok {
								current = nextID
							}
							nextID++
							if name == "rcu" {
								// Release immediately, before any other
								// process can re-enter a critical section.
								v := held[k]
								holders[v]--
								delete(held, k)
								if !checkReleased(m.ReleaseInto(k, nil), k, v) {
									return false
								}
								phase[k] = 0
							} else {
								phase[k] = 2
							}
						} else {
							v := held[k]
							holders[v]--
							delete(held, k)
							if !checkReleased(m.ReleaseInto(k, nil), k, v) {
								return false
							}
							phase[k] = 0
						}
					case 2: // set done (rcu never reaches here); release
						v := held[k]
						holders[v]--
						delete(held, k)
						if !checkReleased(m.ReleaseInto(k, nil), k, v) {
							return false
						}
						phase[k] = 0
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
