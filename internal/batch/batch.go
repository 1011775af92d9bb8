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
package batch

import (
	"runtime"
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

	// done, when non-nil, is the completion callback SubmitAsync attached:
	// the combiner invokes it exactly once, after the commit containing the
	// request has been published (or during the final drain on Stop).  A
	// non-nil argument is the commit function's error: the batch was NOT
	// acknowledged (e.g. the WAL is poisoned or full).
	done func(error)
}

// Commit is how a Batcher commits: the combiner calls it once per gathered
// batch with the batch's inserts and deletes, and it applies them as ONE
// write transaction (see Apply), making the result as durable as its owner
// promises before returning.  Its error is delivered to every request
// callback in the batch.  The slices are owned by the combiner and valid
// only for the duration of the call.
type Commit[K, V any] func(inserts []ftree.Entry[K, V], deletes []K) error

// ring is a single-producer single-consumer bounded queue.  The producer
// (client) advances tail; the consumer (combiner) advances head.
type ring[K, V any] struct {
	buf       []Request[K, V]
	mask      uint64
	head      atomic.Uint64 // next slot the combiner will read
	tail      atomic.Uint64 // next slot the client will write
	committed atomic.Uint64 // requests ≤ this index are durably committed
	_         [4]uint64
}

// Batcher owns the single combining writer for a Map.  Clients call Submit
// (SubmitWait, or SubmitAsync for pipelined completion callbacks) from
// their own goroutine; the combiner goroutine commits batches until Stop.
// The combiner holds no process identity between batches: each commit
// leases one like any other transaction.  (A, the map's augmentation type,
// is in no field: it is a parameter so that Batcher[K, V, A] names the map
// the batcher writes to.)
type Batcher[K, V, A any] struct {
	rings    []*ring[K, V]
	commit   Commit[K, V]
	interval time.Duration
	maxBatch int

	// The gathered batch; touched only by the combiner goroutine, reused
	// across commits.
	inserts []ftree.Entry[K, V]
	deletes []K
	cbs     []func(error)
	marks   []mark[K, V]

	stop    chan struct{}
	done    chan struct{}
	batches atomic.Int64
	applied atomic.Int64
	maxSeen atomic.Int64
}

// mark is a ring's head after a gather: its committed watermark once the
// gathered batch is resolved.
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

// New creates a Batcher that commits each batch to m as one write
// transaction under m's writer slot, so a cross-shard atomic install or a
// fenced consistent view never has to chase a stream of combiner commits.
// The commit is GSN-stamped like any other.  comb defines how an inserted
// value merges with an existing one (nil overwrites).  Start must be called
// before any Submit.
func New[K, V, A any](m *core.Map[K, V, A], cfg Config, comb func(old, new V) V) *Batcher[K, V, A] {
	return NewWithCommit[K, V, A](cfg, func(inserts []ftree.Entry[K, V], deletes []K) error {
		m.LockWriterSlot()
		defer m.UnlockWriterSlot()
		m.With(func(h *core.Handle[K, V, A]) {
			// A conflict re-runs the transaction on what the attempt
			// before it coalesced the inserts to, never on its leftovers.
			h.Update(func(tx *core.Txn[K, V, A]) { inserts = Apply(tx, inserts, deletes, comb) })
		})
		return nil
	})
}

// NewWithCommit creates a Batcher around the owner's own commit function
// (shard.Map routes it through its commit pipeline).
func NewWithCommit[K, V, A any](cfg Config, commit Commit[K, V]) *Batcher[K, V, A] {
	capacity := cfg.BufCap
	if capacity <= 0 {
		capacity = 8192
	}
	capacity = nextPow2(capacity)
	b := &Batcher[K, V, A]{
		commit:   commit,
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
		b.rings[i] = &ring[K, V]{buf: make([]Request[K, V], capacity), mask: uint64(capacity - 1)}
	}
	return b
}

// Apply is a gathered batch as transaction code: inserts, then deletes.  It
// returns the inserts as the transaction wrote them — sorted, one entry per
// key (see core.Txn.InsertBatch) — which is what a log records and what a
// re-run of the transaction must be given.
func Apply[K, V, A any](tx *core.Txn[K, V, A], inserts []ftree.Entry[K, V], deletes []K, comb func(old, new V) V) []ftree.Entry[K, V] {
	if len(inserts) > 0 {
		inserts = tx.InsertBatch(inserts, comb)
	}
	if len(deletes) > 0 {
		tx.DeleteBatch(deletes)
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
// down.  Clients must have stopped submitting.
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

// Submit enqueues an update from client (0..Clients-1).  It blocks —
// yielding, not spinning hot — while the client's buffer is full.
func (b *Batcher[K, V, A]) Submit(client int, r Request[K, V]) {
	q := b.rings[client]
	for {
		t := q.tail.Load()
		if t-q.head.Load() < uint64(len(q.buf)) {
			q.buf[t&q.mask] = r
			q.tail.Store(t + 1)
			return
		}
		runtime.Gosched() // backpressure: combiner is behind
	}
}

// SubmitWait enqueues an update and blocks until it has been committed,
// giving per-request durability at batching latency.
func (b *Batcher[K, V, A]) SubmitWait(client int, r Request[K, V]) {
	q := b.rings[client]
	b.Submit(client, r)
	seq := q.tail.Load()
	for q.committed.Load() < seq {
		runtime.Gosched()
	}
}

// SubmitAsync enqueues an update and returns without waiting for the
// commit; done is invoked exactly once, after the commit containing the
// request has been published — including the final drain commit when the
// combiner is stopped with requests still buffered.  This is the
// pipelining primitive: N in-flight writes cost N ring slots, not N
// blocked goroutines (SubmitWait parks its caller per request).
//
// done runs on the combiner goroutine, after the batch's watermarks are
// published, so it may itself call Submit/SubmitAsync — but it must not
// block: every callback in the batch (and every later commit) waits
// behind it.  Hand off to a channel or flip a flag; don't do work there.
// Like Submit, SubmitAsync applies backpressure (blocks) while the
// client's ring is full.
func (b *Batcher[K, V, A]) SubmitAsync(client int, r Request[K, V], done func(error)) {
	r.done = done
	b.Submit(client, r)
}

// Flush blocks until everything submitted by client before the call has
// committed.
func (b *Batcher[K, V, A]) Flush(client int) {
	q := b.rings[client]
	seq := q.tail.Load()
	for q.committed.Load() < seq {
		runtime.Gosched()
	}
}

// run is the combiner loop: commit batches while work is flowing, sleep
// out the latency budget when there is none.
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
			// Final drain.  Shutdown keeps the exactly-once contract: no
			// other commit can have gathered what these steps gather (head
			// advances under this goroutine only).
			for b.step() {
			}
			return
		case <-idle.C:
		}
	}
}

// gather moves up to maxBatch buffered requests (all of them when it is 0)
// out of the rings into the combiner's batch and reports how many.
func (b *Batcher[K, V, A]) gather() (total int) {
	b.inserts, b.deletes, b.cbs, b.marks = b.inserts[:0], b.deletes[:0], b.cbs[:0], b.marks[:0]
	for _, q := range b.rings {
		h, t := q.head.Load(), q.tail.Load()
		if b.maxBatch > 0 && t-h > uint64(b.maxBatch-total) {
			t = h + uint64(b.maxBatch-total)
		}
		for i := h; i < t; i++ {
			r := q.buf[i&q.mask]
			if r.done != nil {
				// The slot is ours until head advances; dropping the
				// closure now keeps a drained ring from retaining it
				// until the producer happens to overwrite the slot.
				b.cbs = append(b.cbs, r.done)
				q.buf[i&q.mask].done = nil
			}
			if r.Op == OpInsert {
				b.inserts = append(b.inserts, ftree.Entry[K, V]{Key: r.Key, Val: r.Val})
			} else {
				b.deletes = append(b.deletes, r.Key)
			}
		}
		if t != h {
			q.head.Store(t)
			b.marks = append(b.marks, mark[K, V]{q, t})
			total += int(t - h)
		}
		if b.maxBatch > 0 && total >= b.maxBatch {
			break
		}
	}
	return total
}

// step gathers one batch, commits it, publishes the per-ring committed
// watermarks and fires the batch's callbacks; false means there was
// nothing to gather.
func (b *Batcher[K, V, A]) step() bool {
	total := b.gather()
	if total == 0 {
		return false
	}
	err := b.commit(b.inserts, b.deletes)
	if err == nil {
		b.batches.Add(1)
		b.applied.Add(int64(total))
		if int64(total) > b.maxSeen.Load() {
			b.maxSeen.Store(int64(total))
		}
	}
	// Watermarks advance even when the commit was refused: "committed"
	// means resolved — SubmitWait and Flush must never wedge behind a
	// poisoned log; only the callbacks carry the verdict.
	for _, mk := range b.marks {
		mk.q.committed.Store(mk.seq)
	}
	// Completion callbacks fire after the watermarks: an async waiter's
	// callback and a SubmitWait on the same batch agree on what
	// "committed" means.  Exactly once per request: the gather consumed
	// each slot's callback before advancing head, and each slot is
	// gathered by exactly one step (this one).
	for i, cb := range b.cbs {
		cb(err)
		b.cbs[i] = nil
	}
	return true
}
