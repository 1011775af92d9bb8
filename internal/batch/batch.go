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
// A commit has two stages, on two goroutines.  The combiner gathers a batch
// and applies it (Commit.Apply: one write transaction, handed to the owner's
// log); the completer, in batch order, waits for it to be durable
// (Commit.Wait), publishes the rings' committed watermarks and fires the
// completion callbacks.  The combiner is therefore bounded by the work of
// applying batches, not by the log's fsync: it gathers and applies batch k+1
// while batch k's fsync is in flight, up to runAhead batches ahead.
package batch

import (
	"errors"
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
	// the completer invokes it exactly once, after the commit containing the
	// request has been resolved and published (for requests still buffered
	// at Stop: after the final drain's).  A non-nil argument is the commit's
	// error: the batch was NOT acknowledged (e.g. the WAL is poisoned or
	// full).
	done func(error)
}

// Commit is how a Batcher commits, one stage per goroutine.
type Commit[K, V any] struct {
	// Apply is the combiner's stage, called once per gathered batch: it
	// applies the batch's inserts and deletes as ONE write transaction (see
	// Apply) and hands it to the owner's log without waiting for the log.
	// mark identifies the batch to Wait.  The slices are owned by the
	// combiner and valid only for the duration of the call.
	Apply func(inserts []ftree.Entry[K, V], deletes []K) (mark int64, err error)
	// Wait is the completer's stage: it returns once the batch Apply
	// returned mark for is as durable as the owner promises.  It is called
	// in batch order, with no lock held, only for batches whose Apply
	// succeeded; nil means there is nothing to wait for.
	Wait func(mark int64) error
}

// ErrStopped is delivered to the callback of a request that a producer
// still parked at Stop submitted after the final drain: it was dropped.
var ErrStopped = errors.New("batch: batcher stopped")

// ring is a single-producer single-consumer bounded queue.  The producer
// (client) advances tail; the consumer (combiner) advances head; the
// completer advances committed.
type ring[K, V any] struct {
	buf       []Request[K, V]
	mask      uint64
	head      atomic.Uint64 // next slot the combiner will read
	tail      atomic.Uint64 // next slot the client will write
	committed atomic.Uint64 // requests ≤ this index are resolved (see complete)
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
// after advancing head, the completer after advancing committed.
func (q *ring[K, V]) unpark(why uint32) {
	if q.parked.Load() == why && q.parked.CompareAndSwap(why, 0) {
		q.wake <- struct{}{}
	}
}

// runAhead is how many batches may be applied and not yet resolved: the
// size of the fixed ring of batch records between combiner and completer.
// It is a constant, not a Config field, because there is nothing to tune:
// two already keep a batch waiting whenever an fsync returns, the rest only
// lets the combiner keep applying through one slow fsync, and beyond that
// every further batch in flight is a smaller gather for no gain (2, 4
// and 8 measure alike on the durable wire workload).  What bounds a
// client's outstanding writes is BufCap, as before.
const runAhead = 4

// batchRec is one applied batch on its way to the completer.  The records
// are allocated once and reused, slices included.
type batchRec[K, V any] struct {
	marks []mark[K, V]  // the rings' committed watermarks once resolved
	cbs   []func(error) // the batch's completion callbacks, in gather order
	total int           // requests in the batch
	mark  int64         // Commit.Apply's result, for Commit.Wait
	err   error
}

// Batcher owns the single combining writer for a Map.  Clients call Submit
// (SubmitWait, or SubmitAsync for pipelined completion callbacks), each
// client id from one goroutine at a time; the combiner and completer
// goroutines commit batches until Stop.  The combiner holds no process
// identity between batches: each commit leases one like any other
// transaction.  (A, the map's augmentation type, is in no field: it is a
// parameter so that Batcher[K, V, A] names the map the batcher writes to.)
type Batcher[K, V, A any] struct {
	rings    []*ring[K, V]
	commit   Commit[K, V]
	interval time.Duration
	maxBatch int

	// The gathered batch; touched only by the combiner goroutine, reused
	// across commits.  cur is the batch record being filled.
	inserts []ftree.Entry[K, V]
	deletes []K
	cur     *batchRec[K, V]

	// The ring of batch records: the combiner takes one from free, fills it
	// and sends it on pending; the completer resolves it and returns it.
	recs    [runAhead]batchRec[K, V]
	free    chan *batchRec[K, V]
	pending chan *batchRec[K, V]

	stop      chan struct{}
	done      chan struct{} // closed when both goroutines have exited
	completed chan struct{} // closed by the completer on its way out
	stopped   atomic.Bool   // set after the final drain: parked producers leave
	batches   atomic.Int64
	applied   atomic.Int64
	maxSeen   atomic.Int64
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

// New creates a Batcher that commits each batch to a standalone m as one
// write transaction on a leased pid, beside any other writer of m (a
// core.Map's writers are lock-free, and a conflict re-runs the batch).  It
// takes no writer slot and no commit stamp: those belong to a sharded map,
// whose batchers go through its own commit pipeline (NewWithCommit).  comb
// defines how an inserted value merges with an existing one (nil
// overwrites).  Start must be called before any Submit.
func New[K, V, A any](m *core.Map[K, V, A], cfg Config, comb func(old, new V) V) *Batcher[K, V, A] {
	return NewWithCommit[K, V, A](cfg, Commit[K, V]{
		Apply: func(inserts []ftree.Entry[K, V], deletes []K) (int64, error) {
			m.With(func(h *core.Handle[K, V, A]) {
				// A conflict re-runs the transaction on what the attempt
				// before it coalesced the inserts to, never on its leftovers.
				h.Update(func(tx *core.Txn[K, V, A]) { inserts = Apply(tx, inserts, deletes, comb) })
			})
			return 0, nil
		},
	})
}

// NewWithCommit creates a Batcher around the owner's own commit stages
// (shard.Map routes them through its commit pipeline).
func NewWithCommit[K, V, A any](cfg Config, commit Commit[K, V]) *Batcher[K, V, A] {
	capacity := cfg.BufCap
	if capacity <= 0 {
		capacity = 8192
	}
	capacity = nextPow2(capacity)
	b := &Batcher[K, V, A]{
		commit:    commit,
		interval:  cfg.MaxLatency,
		maxBatch:  cfg.MaxBatch,
		free:      make(chan *batchRec[K, V], runAhead),
		pending:   make(chan *batchRec[K, V], runAhead),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		completed: make(chan struct{}),
	}
	if b.interval <= 0 {
		b.interval = 2 * time.Millisecond
	}
	for i := range b.recs {
		b.recs[i].marks = make([]mark[K, V], 0, cfg.Clients)
		b.free <- &b.recs[i]
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

// Start launches the combiner and completer goroutines.
func (b *Batcher[K, V, A]) Start() {
	go b.complete()
	go b.run()
}

// Stop drains every buffer, commits what is left, waits for the last batch
// to be resolved and its callbacks to have fired, and shuts both goroutines
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
// combiner's gather or the completer's publication wakes it.  After Stop it
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
			// Released by Stop, and nobody will gather again.
			if r.done != nil {
				r.done(ErrStopped)
			}
			return
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

// SubmitAsync enqueues an update and returns without waiting for the
// commit; done is invoked exactly once, after the commit containing the
// request has been resolved — including the final drain commit when the
// combiner is stopped with requests still buffered.  This is the
// pipelining primitive: N in-flight writes cost N ring slots, not N
// blocked goroutines (SubmitWait parks its caller per request).
//
// done runs on the batcher's completer goroutine, in batch order, after the
// batch's watermarks are published.  It must not block: every callback in
// the batch, and every later batch's resolution, waits behind it.  In
// particular it must not Submit into a ring that may be full: the combiner
// that would make room may itself be waiting for the completer to hand
// back a batch record, and the pair deadlocks.  Hand off to a channel or
// flip a flag; don't do work there.  Like Submit, SubmitAsync applies
// backpressure (blocks) while the client's ring is full.
func (b *Batcher[K, V, A]) SubmitAsync(client int, r Request[K, V], done func(error)) {
	r.done = done
	b.Submit(client, r)
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
			// Final drain.  Shutdown keeps the exactly-once contract: no
			// other commit can have gathered what these steps gather (head
			// advances under this goroutine only), and the completer
			// resolves every batch sent before pending closes.
			for b.step() {
			}
			close(b.pending)
			<-b.completed
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
// out of the rings into the combiner's batch and rec, wakes the producers
// it made room for, and reports how many requests it took.
func (b *Batcher[K, V, A]) gather(rec *batchRec[K, V]) (total int) {
	b.inserts, b.deletes = b.inserts[:0], b.deletes[:0]
	rec.cbs, rec.marks = rec.cbs[:0], rec.marks[:0]
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
				rec.cbs = append(rec.cbs, r.done)
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
			q.unpark(waitSpace)
			rec.marks = append(rec.marks, mark[K, V]{q, t})
			total += int(t - h)
		}
		if b.maxBatch > 0 && total >= b.maxBatch {
			break
		}
	}
	return total
}

// step is the combiner's stage of one commit: take a free batch record
// (waiting for the completer when runAhead batches are in flight), gather a
// batch into it, apply it and pass it on; false means there was nothing to
// gather.
func (b *Batcher[K, V, A]) step() bool {
	if b.cur == nil {
		b.cur = <-b.free
	}
	rec := b.cur
	rec.total = b.gather(rec)
	if rec.total == 0 {
		return false
	}
	rec.mark, rec.err = b.commit.Apply(b.inserts, b.deletes)
	b.cur = nil
	b.pending <- rec
	return true
}

// complete is the completer loop, the second stage of every commit in batch
// order: wait until the batch is durable, count it, publish the per-ring
// committed watermarks and fire the batch's callbacks.
func (b *Batcher[K, V, A]) complete() {
	defer close(b.completed)
	for rec := range b.pending {
		err := rec.err
		if err == nil && b.commit.Wait != nil {
			err = b.commit.Wait(rec.mark)
		}
		if err == nil {
			b.batches.Add(1)
			b.applied.Add(int64(rec.total))
			if int64(rec.total) > b.maxSeen.Load() {
				b.maxSeen.Store(int64(rec.total))
			}
		}
		// Watermarks advance even when the commit was refused: "committed"
		// means resolved — SubmitWait and Flush must never wedge behind a
		// poisoned log; only the callbacks carry the verdict.
		for _, mk := range rec.marks {
			mk.q.committed.Store(mk.seq)
			mk.q.unpark(waitCommit)
		}
		// Completion callbacks fire after the watermarks: an async waiter's
		// callback and a SubmitWait on the same batch agree on what
		// "committed" means.  Exactly once per request: the gather consumed
		// each slot's callback before advancing head, and each slot is
		// gathered by exactly one step.
		for i, cb := range rec.cbs {
			cb(err)
			rec.cbs[i] = nil
		}
		b.free <- rec
	}
}
