// Package batch implements the paper's batching scheme (Appendix F): many
// client processes append update requests to private buffers, and a single
// combining writer periodically drains all buffers and commits the whole
// batch atomically as one write transaction, applying it with the parallel
// multi-insert.  Readers never batch — they run delay-free read
// transactions directly against the map.
//
// Each client owns a single-producer ring buffer whose tail only the client
// advances and whose head only the combiner advances, so clients and the
// combiner never contend on the same index (Appendix F: "There is no
// contention between processes").  Batching trades wait-freedom of
// individual writes for contention-free parallel throughput and atomic
// multi-operation commits; the paper's Figure 7 measures the payoff.
//
// The combiner gathers a batch, applies it as one write transaction and
// then publishes the rings' committed watermarks, which is what Flush and
// SubmitWait wait for.
package batch

import (
	"slices"
	"sync/atomic"
	"time"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Op is the kind of a batched request.
type Op uint8

const (
	// OpInsert inserts or overwrites a key.
	OpInsert Op = iota
	// OpDelete removes a key.
	OpDelete
)

// Request is one buffered update.
type Request[K, V any] struct {
	Op  Op
	Key K
	Val V
}

// ring is a single-producer single-consumer bounded queue.  The producer
// (client) advances tail; the consumer (combiner) advances head and, once
// the batch holding a request has committed, committed.
type ring[K, V any] struct {
	buf       []Request[K, V]
	mask      uint64
	head      atomic.Uint64 // next slot the combiner will read
	tail      atomic.Uint64 // next slot the client will write
	committed atomic.Uint64 // requests below this index are committed (see step)
	// parked is the producer's declaration that it sleeps, and what for
	// (waitSpace, waitCommit); whoever moves the word it waits on claims the
	// declaration and sends the one token on wake.
	parked atomic.Uint32
	wake   chan struct{}
	_      [2]uint64
}

// What a parked producer waits for.
const (
	waitSpace  uint32 = 1 + iota // head to advance: the ring is full
	waitCommit                   // committed to reach its request
)

// blocked reports whether the producer still has to wait: for room at tail
// seq, or for the request at seq to be committed.
func (q *ring[K, V]) blocked(why uint32, seq uint64) bool {
	if why == waitSpace {
		return seq-q.head.Load() >= uint64(len(q.buf))
	}
	return q.committed.Load() < seq
}

// unpark wakes the producer if it sleeps for why.  The combiner calls it
// after advancing head or committed.
func (q *ring[K, V]) unpark(why uint32) {
	if q.parked.Load() == why && q.parked.CompareAndSwap(why, 0) {
		q.wake <- struct{}{}
	}
}

// Batcher owns the single combining writer for a Map.  Clients call Submit
// (or SubmitWait), each client id from one goroutine at a time; the combiner
// goroutine commits batches until Stop.  The combiner holds no process
// identity between batches: each commit leases one like any other
// transaction.
type Batcher[K, V, A any] struct {
	rings    []*ring[K, V]
	ops      *ftree.Ops[K, V, A] // the map's: its key order, its value release
	apply    func(inserts []ftree.Entry[K, V], deletes []K) error
	interval time.Duration
	maxBatch int

	// The gathered batch; touched only by the combiner goroutine, reused
	// across commits.  dels holds the deletes in gather order until
	// supersede turns them into deletes; marks holds the rings' heads after
	// the gather, their committed watermarks once the batch commits.
	inserts []ftree.Entry[K, V]
	dels    []gatheredDelete[K]
	deletes []K
	marks   []mark[K, V]

	stop    chan struct{}
	done    chan struct{} // closed when the combiner has exited
	stopped atomic.Bool   // set after the final drain: parked producers leave
	batches atomic.Int64
	applied atomic.Int64
	maxSeen atomic.Int64
}

// gatheredDelete is a delete request and how many inserts the gather had
// taken before it: those are the ones it may supersede.
type gatheredDelete[K any] struct {
	key   K
	after int
}

// mark is a ring's head after a gather: its committed watermark once the
// gathered batch has committed.
type mark[K, V any] struct {
	q   *ring[K, V]
	seq uint64
}

// Config tunes a Batcher.
type Config struct {
	// Clients is the number of client buffers (their ids are 0..Clients-1,
	// independent of map process ids since clients never touch the VM).
	Clients int
	// BufCap is each client's buffer capacity (rounded up to a power of
	// two, default 8192).  Submit applies backpressure when full.
	BufCap int
	// MaxLatency bounds how long a submitted request may wait before the
	// combiner picks it up (the paper bounds update latency to ~50 ms).
	// Default 2 ms.
	MaxLatency time.Duration
	// MaxBatch caps requests per commit; 0 means unlimited.
	MaxBatch int
}

// New creates a Batcher that commits each batch to a standalone m as one
// write transaction on a leased pid, beside any other writer of m (a
// core.Map's writers are lock-free, and a conflict re-runs the batch).  It
// takes no writer slot and no commit stamp: those belong to a sharded map,
// which a Batcher feeds through NewWithCommit.  comb defines how an
// inserted value merges with an existing one (nil overwrites).  Start must
// be called before any Submit.
func New[K, V, A any](m *core.Map[K, V, A], cfg Config, comb func(old, new V) V) *Batcher[K, V, A] {
	return NewWithCommit(cfg, m.Ops(), func(inserts []ftree.Entry[K, V], deletes []K) error {
		m.With(func(h *core.Handle[K, V, A]) {
			// A conflict re-runs the transaction on what the attempt
			// before it coalesced the inserts to, never on its leftovers.
			h.Update(func(tx *core.Txn[K, V, A]) { inserts = Apply(tx, inserts, deletes, comb) })
		})
		return nil
	})
}

// NewWithCommit creates a Batcher that commits each gathered batch through
// apply, for the map whose tree ops is.  apply must commit the batch's
// deletes and then its inserts as ONE write transaction (see Apply); no
// insert is one a delete gathered after it superseded, so that order is the
// requests' own.  The slices are owned by the combiner and valid only for
// the duration of the call.  A batch whose apply fails is not counted; its
// requests still count as committed for Flush and SubmitWait, which must
// not wedge.
func NewWithCommit[K, V, A any](cfg Config, ops *ftree.Ops[K, V, A], apply func(inserts []ftree.Entry[K, V], deletes []K) error) *Batcher[K, V, A] {
	capacity := cfg.BufCap
	if capacity <= 0 {
		capacity = 8192
	}
	capacity = nextPow2(capacity)
	b := &Batcher[K, V, A]{
		ops:      ops,
		apply:    apply,
		interval: cfg.MaxLatency,
		maxBatch: cfg.MaxBatch,
		marks:    make([]mark[K, V], 0, cfg.Clients),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if b.interval <= 0 {
		b.interval = 2 * time.Millisecond
	}
	b.rings = make([]*ring[K, V], cfg.Clients)
	for i := range b.rings {
		b.rings[i] = &ring[K, V]{
			buf:  make([]Request[K, V], capacity),
			mask: uint64(capacity - 1),
			wake: make(chan struct{}, 1),
		}
	}
	return b
}

// Apply is a gathered batch as transaction code: deletes, then inserts, so
// an insert gathered after a delete of its key lands on no old value.  It
// returns the inserts as the transaction wrote them — sorted, one entry per
// key (see core.Txn.InsertBatch) — which is what a log records and what a
// re-run of the transaction must be given.
func Apply[K, V, A any](tx *core.Txn[K, V, A], inserts []ftree.Entry[K, V], deletes []K, comb func(old, new V) V) []ftree.Entry[K, V] {
	if len(deletes) > 0 {
		tx.DeleteBatch(deletes)
	}
	if len(inserts) > 0 {
		inserts = tx.InsertBatch(inserts, comb)
	}
	return inserts
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Start launches the combiner goroutine.
func (b *Batcher[K, V, A]) Start() { go b.run() }

// Stop drains every buffer, commits what is left and shuts the combiner
// down.  Clients must have stopped submitting; a producer found parked all
// the same is released (see park).
func (b *Batcher[K, V, A]) Stop() {
	close(b.stop)
	<-b.done
}

// Batches reports how many write transactions the combiner committed.
func (b *Batcher[K, V, A]) Batches() int64 { return b.batches.Load() }

// Applied reports how many requests have been committed.
func (b *Batcher[K, V, A]) Applied() int64 { return b.applied.Load() }

// MaxBatchSeen reports the largest committed batch.
func (b *Batcher[K, V, A]) MaxBatchSeen() int64 { return b.maxSeen.Load() }

// park blocks the ring's producer while q.blocked(why, seq): it declares
// what it waits for, looks again — the word may have moved between the
// check and the declaration — and only then sleeps; it takes the token only
// if a waker has claimed the declaration (netserver's conn.lease is the
// same handshake).  No polling: a parked producer costs nothing until the
// combiner's gather or publication wakes it.  After Stop it
// returns at once, blocked or not.
func (b *Batcher[K, V, A]) park(q *ring[K, V], why uint32, seq uint64) {
	for q.blocked(why, seq) && !b.stopped.Load() {
		q.parked.Store(why)
		if (q.blocked(why, seq) && !b.stopped.Load()) || !q.parked.CompareAndSwap(why, 0) {
			<-q.wake
		}
	}
}

// Submit enqueues an update from client (0..Clients-1).  It blocks —
// parked, not polling — while the client's buffer is full, until the
// combiner's next gather makes room.
func (b *Batcher[K, V, A]) Submit(client int, r Request[K, V]) {
	q := b.rings[client]
	t := q.tail.Load()
	if q.blocked(waitSpace, t) {
		b.park(q, waitSpace, t) // backpressure: the combiner is behind
		if q.blocked(waitSpace, t) {
			return // released by Stop, and nobody will gather again: dropped
		}
	}
	q.buf[t&q.mask] = r
	q.tail.Store(t + 1)
}

// SubmitWait enqueues an update and blocks until it has been committed,
// giving per-request durability at batching latency.
func (b *Batcher[K, V, A]) SubmitWait(client int, r Request[K, V]) {
	b.Submit(client, r)
	b.Flush(client)
}

// Flush blocks until everything submitted by client before the call has
// committed.
func (b *Batcher[K, V, A]) Flush(client int) {
	q := b.rings[client]
	b.park(q, waitCommit, q.tail.Load())
}

// run is the combiner loop: apply batches while work is flowing, sleep out
// the latency budget when there is none.
func (b *Batcher[K, V, A]) run() {
	defer close(b.done)
	idle := time.NewTimer(b.interval) // one timer for every idle poll
	defer idle.Stop()
	for {
		if b.step() {
			continue // stay hot while work is flowing
		}
		idle.Reset(b.interval)
		select {
		case <-b.stop:
			// Final drain: head advances under this goroutine only, so
			// these steps commit everything submitted before Stop once.
			for b.step() {
			}
			// Nobody gathers or publishes any more: let go of any producer
			// that is (or is about to be) parked.
			b.stopped.Store(true)
			for _, q := range b.rings {
				if q.parked.Swap(0) != 0 {
					q.wake <- struct{}{}
				}
			}
			return
		case <-idle.C:
		}
	}
}

// gather moves up to maxBatch buffered requests (all of them when it is 0)
// out of the rings into the combiner's batch, wakes the producers it made
// room for, and reports how many requests it took.
func (b *Batcher[K, V, A]) gather() (total int) {
	b.inserts, b.dels, b.deletes, b.marks = b.inserts[:0], b.dels[:0], b.deletes[:0], b.marks[:0]
	for _, q := range b.rings {
		h, t := q.head.Load(), q.tail.Load()
		if b.maxBatch > 0 && t-h > uint64(b.maxBatch-total) {
			t = h + uint64(b.maxBatch-total)
		}
		for i := h; i < t; i++ {
			r := q.buf[i&q.mask]
			if r.Op == OpInsert {
				b.inserts = append(b.inserts, ftree.Entry[K, V]{Key: r.Key, Val: r.Val})
			} else {
				b.dels = append(b.dels, gatheredDelete[K]{r.Key, len(b.inserts)})
			}
		}
		if t != h {
			q.head.Store(t)
			q.unpark(waitSpace)
			b.marks = append(b.marks, mark[K, V]{q, t})
			total += int(t - h)
		}
		if b.maxBatch > 0 && total >= b.maxBatch {
			break
		}
	}
	if len(b.dels) > 0 {
		b.supersede()
	}
	return total
}

// supersede makes the gathered batch one that applies as its requests
// would one by one in gather order (FIFO per ring): it drops every insert
// that a delete of the same key gathered after it supersedes, releasing its
// value as the tree would, and leaves deletes holding each deleted key
// once — what Apply deletes before it inserts the rest.
func (b *Batcher[K, V, A]) supersede() {
	cmp := b.ops.Cmp
	// Sorted stably by key, a key's last delete is the last of its run.
	slices.SortStableFunc(b.dels, func(x, y gatheredDelete[K]) int { return cmp(x.key, y.key) })
	last := b.dels[:0]
	for _, d := range b.dels {
		if n := len(last); n > 0 && cmp(last[n-1].key, d.key) == 0 {
			last[n-1] = d
		} else {
			last = append(last, d)
		}
	}
	kept := b.inserts[:0]
	for i, e := range b.inserts {
		j, found := slices.BinarySearchFunc(last, e.Key, func(d gatheredDelete[K], k K) int { return cmp(d.key, k) })
		if found && last[j].after > i {
			if b.ops.ReleaseVal != nil {
				b.ops.ReleaseVal(e.Val)
			}
			continue
		}
		kept = append(kept, e)
	}
	b.inserts = kept
	for _, d := range last {
		b.deletes = append(b.deletes, d.key)
	}
}

// step is one commit: gather a batch, apply it and publish the rings'
// committed watermarks; false means there was nothing to gather.
// Watermarks advance even when apply fails: "committed" means resolved —
// SubmitWait and Flush must never wedge behind a failing commit.
func (b *Batcher[K, V, A]) step() bool {
	total := b.gather()
	if total == 0 {
		return false
	}
	if b.apply(b.inserts, b.deletes) == nil {
		b.batches.Add(1)
		b.applied.Add(int64(total))
		if int64(total) > b.maxSeen.Load() {
			b.maxSeen.Store(int64(total))
		}
	}
	for _, mk := range b.marks {
		mk.q.committed.Store(mk.seq)
		mk.q.unpark(waitCommit)
	}
	return true
}
