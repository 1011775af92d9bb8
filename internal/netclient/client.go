// Package netclient is the pipelining client for the netproto serving
// layer.  Every operation has an async form returning a *Pending: the
// request is encoded into the connection's write buffer and the call
// returns immediately; Pending.Wait blocks until the in-order reply
// arrives.  Because the server replies strictly in request order, one
// reader goroutine matching replies to a FIFO of pendings is all the
// demultiplexing the protocol needs.
//
// Pipelining is what lets a single connection amortize the server's
// commits: D outstanding SETs from this client are one burst the server
// commits as one commit per shard, so per-op commit cost falls as depth
// grows (netserver's BenchmarkServeSweep sweeps depth and connections).
//
// The client pays per burst, not per request.  Flush is a hand-off to the
// outbox, a bounded double buffer that a flusher goroutine, the socket's
// only writer, puts on the wire one whole half per write(2): requests
// flushed while a write is in flight share the next one.  The synchronous
// wrappers are the async call, Flush and a wait.  A request costs one
// 64-byte heap object, its Pending.  See DESIGN.md, "The network coalescing
// path".
//
// The client is safe for concurrent use; requests from multiple goroutines
// are serialized onto the wire in submission order.
package netclient

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mvgc/internal/netproto"
)

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("netclient: client closed")

// Pending is one in-flight request's future reply, and the only heap
// object a request usually costs (64 bytes).  An integer reply is stored
// inline as its eight bytes, a short text — a GET's decimal value, OK, PONG —
// inline as it came off the wire and parsed when asked for; only an array
// or a longer text takes a second object.  The channel a waiter parks on is
// made only when a waiter arrives before the reply.
type Pending struct {
	mu   sync.Mutex    // guards wait against the reader's complete
	wait chan struct{} // made by the first waiter that finds the reply missing
	fail *errorBox     // transport or usage error; nil when a reply arrived
	big  *bigReply     // what small cannot hold

	done  atomic.Bool // set, after every other field, by complete
	kind  byte
	null  bool
	slen  uint8    // bytes of text in small
	small [25]byte // a short text, or an integer reply in the first eight bytes
}

// bigReply is a reply's payload when it is an array or a text longer than
// Pending.small.
type bigReply struct {
	text string
	arr  []int64
}

// complete publishes the reply (or failure) stored in p and releases
// every waiter.  Called exactly once per Pending.
func (p *Pending) complete() {
	p.mu.Lock()
	p.done.Store(true)
	wait := p.wait
	p.mu.Unlock()
	if wait != nil {
		close(wait)
	}
}

// completeErr fails p.
func (p *Pending) completeErr(b *errorBox) {
	p.fail = b
	p.complete()
}

// setReply copies a decoded reply out of the read buffer.
func (p *Pending) setReply(rep *netproto.Reply) {
	p.kind = rep.Kind
	switch rep.Kind {
	case netproto.KindInt:
		binary.LittleEndian.PutUint64(p.small[:], uint64(rep.Int))
	case netproto.KindSimple, netproto.KindError:
		p.setText(rep.Line)
	case netproto.KindBulk:
		if rep.Bulk == nil {
			p.null = true
		} else {
			p.setText(rep.Bulk)
		}
	case netproto.KindArray:
		p.big = &bigReply{arr: append([]int64(nil), rep.Array...)}
	}
}

func (p *Pending) setText(b []byte) {
	if len(b) <= len(p.small) {
		p.slen = uint8(copy(p.small[:], b))
	} else {
		p.big = &bigReply{text: string(b)}
	}
}

// text returns the reply's payload as a string.
func (p *Pending) text() string {
	if p.big != nil {
		return p.big.text
	}
	return string(p.small[:p.slen])
}

// number returns an integer reply, or a text payload parsed as a decimal
// int64.
func (p *Pending) number() (int64, error) {
	if p.kind == netproto.KindInt {
		return int64(binary.LittleEndian.Uint64(p.small[:])), nil
	}
	if p.big != nil {
		return netproto.ParseInt([]byte(p.big.text))
	}
	return netproto.ParseInt(p.small[:p.slen])
}

// array returns an array reply's elements.
func (p *Pending) array() []int64 {
	if p.big != nil {
		return p.big.arr
	}
	return nil
}

// Wait blocks until the reply arrives (or the connection fails) and
// returns the transport/protocol error, if any.  Command-level errors
// (server "-ERR ..." replies) surface on the typed accessors, not here.
func (p *Pending) Wait() error {
	if !p.done.Load() {
		p.mu.Lock()
		if p.done.Load() {
			p.mu.Unlock()
		} else {
			if p.wait == nil {
				p.wait = make(chan struct{})
			}
			wait := p.wait
			p.mu.Unlock()
			<-wait
		}
	}
	if p.fail != nil {
		return p.fail.err
	}
	return nil
}

// Err waits and returns the first error of any kind — transport, protocol
// or server-reported.
func (p *Pending) Err() error {
	if err := p.Wait(); err != nil {
		return err
	}
	if p.kind == netproto.KindError {
		return errors.New(p.text())
	}
	return nil
}

// Int waits and returns an integer reply (SUM, LEN, MCAS).
func (p *Pending) Int() (int64, error) {
	if err := p.Err(); err != nil {
		return 0, err
	}
	if p.kind != netproto.KindInt {
		return 0, fmt.Errorf("netclient: unexpected reply kind %q", p.kind)
	}
	return p.number()
}

// Value waits and returns a GET reply: value, whether the key was present.
func (p *Pending) Value() (int64, bool, error) {
	if err := p.Err(); err != nil {
		return 0, false, err
	}
	if p.kind != netproto.KindBulk {
		return 0, false, fmt.Errorf("netclient: unexpected reply kind %q", p.kind)
	}
	if p.null {
		return 0, false, nil
	}
	v, err := p.number()
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// Text waits and returns a bulk or simple reply as a string (STATS, PING).
func (p *Pending) Text() (string, error) {
	if err := p.Err(); err != nil {
		return "", err
	}
	return p.text(), nil
}

// Entry is one scanned key-value pair.
type Entry struct{ Key, Val int64 }

// Entries waits and decodes a SCAN reply's alternating key/value array
// into entries in ascending key order.
func (p *Pending) Entries() ([]Entry, error) {
	if err := p.Err(); err != nil {
		return nil, err
	}
	if p.kind != netproto.KindArray {
		return nil, fmt.Errorf("netclient: unexpected reply kind %q", p.kind)
	}
	arr := p.array()
	if len(arr)%2 != 0 {
		return nil, fmt.Errorf("netclient: odd scan reply length %d", len(arr))
	}
	return pairs(arr), nil
}

// pairs decodes an even-length array of alternating keys and values.
func pairs(arr []int64) []Entry {
	out := make([]Entry, 0, len(arr)/2)
	for i := 0; i+1 < len(arr); i += 2 {
		out = append(out, Entry{Key: arr[i], Val: arr[i+1]})
	}
	return out
}

// ScanChunk is one SCANC page: up to n entries in ascending key order
// plus the cursor to continue from.  When More is set, resuming at Next
// with excl=true yields the following page; pages from different calls
// may observe different snapshots (the cursor lives on the client).
type ScanChunk struct {
	Entries []Entry
	Next    int64 // last key of this page; resume point when More
	More    bool  // the range may hold entries beyond Next
}

// Chunk waits and decodes a SCANC reply: [more, next, k1, v1, ...].
func (p *Pending) Chunk() (ScanChunk, error) {
	if err := p.Err(); err != nil {
		return ScanChunk{}, err
	}
	if p.kind != netproto.KindArray {
		return ScanChunk{}, fmt.Errorf("netclient: unexpected reply kind %q", p.kind)
	}
	arr := p.array()
	if len(arr) < 2 || len(arr)%2 != 0 {
		return ScanChunk{}, fmt.Errorf("netclient: malformed cursor-scan reply length %d", len(arr))
	}
	return ScanChunk{Entries: pairs(arr[2:]), Next: arr[1], More: arr[0] != 0}, nil
}

// Client is one pipelined connection.
type Client struct {
	nc net.Conn

	mu     sync.Mutex // serializes encoding + enqueueing (wire order = FIFO order)
	w      *netproto.Writer
	closed bool
	out    outbox // where w's bytes wait for the socket

	// fail is the sticky transport error (*errorBox); once set, every new
	// operation fails fast.  Lock-free on purpose: the read loop must be
	// able to poison the client while an op goroutine holds mu blocked on
	// a full queue — taking mu here would deadlock exactly when the
	// connection dies under a saturated pipeline.
	fail atomic.Pointer[errorBox]

	queue    chan *Pending // FIFO the reader goroutine completes in order
	readDone chan struct{}
}

type errorBox struct{ err error }

var closedBox = &errorBox{ErrClosed}

// Dial connects with the given pipeline window: up to depth requests may
// be outstanding before an async call implicitly flushes and blocks.
// depth <= 0 means 256.
func Dial(addr string, depth int) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, depth), nil
}

// NewClient wraps an established connection (tests use net.Pipe-like
// transports).
func NewClient(nc net.Conn, depth int) *Client {
	if depth <= 0 {
		depth = 256
	}
	c := &Client{
		nc:       nc,
		queue:    make(chan *Pending, depth),
		readDone: make(chan struct{}),
	}
	c.w = netproto.NewWriterSize(&c.out, encoderBuf)
	c.out.start(nc, c.poison)
	go c.readLoop()
	return c
}

// readLoop completes pendings in FIFO order; on transport failure it fails
// the current and all later pendings with the same error, poisons the
// client so new operations fail fast instead of encoding onto a dead
// connection, and closes the socket to unwedge any writer blocked in the
// kernel.
func (c *Client) readLoop() {
	defer close(c.readDone)
	r := netproto.NewReader(c.nc)
	var rep netproto.Reply
	var fail *errorBox
	for p := range c.queue {
		if fail == nil {
			if err := r.ReadReply(&rep); err != nil {
				c.poison(err)
				fail = c.fail.Load() // the first error, which a failed write may have set
			}
		}
		if fail != nil {
			p.completeErr(fail)
			continue
		}
		p.setReply(&rep)
		p.complete()
	}
}

// poison records the first transport error (new operations fail fast with
// it) and closes the socket so a writer blocked against a dead peer's full
// kernel buffer gets unstuck.  Safe from any goroutine without locks;
// Close-induced read errors are shadowed by the closed flag, which ops
// check first.
func (c *Client) poison(err error) {
	if c.fail.CompareAndSwap(nil, &errorBox{err}) {
		c.nc.Close()
	}
}

// enqueue registers p as the next expected reply.  Called with mu held,
// immediately after encoding p's request.  If the window is full, the
// write buffer is handed to the flusher first — the server can only drain
// the window by seeing the requests — and then the send blocks until the
// reader frees a slot, which bounds outstanding requests without deadlock
// (neither the flusher nor the reader ever takes mu, and on a failed
// connection the reader drains the queue failing everything, so the send
// still returns promptly).
func (c *Client) enqueue(p *Pending) {
	select {
	case c.queue <- p:
	default:
		if err := c.w.Flush(); err != nil {
			p.completeErr(&errorBox{err})
			return
		}
		c.out.kick()
		c.queue <- p
	}
}

// dead reports (with mu held) whether new operations must fail fast, and
// fails p with the reason when so.
func (c *Client) dead(p *Pending) bool {
	fail := c.fail.Load()
	if c.closed {
		fail = closedBox
	}
	if fail == nil {
		return false
	}
	p.completeErr(fail)
	return true
}

// send pipelines one command with integer arguments: the request path of
// every XxxAsync method but MCASAsync.
func (c *Client) send(name string, args ...int64) *Pending {
	p := new(Pending)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead(p) {
		return p
	}
	c.w.BeginCommand(1 + len(args))
	c.w.ArgString(name)
	for _, a := range args {
		c.w.ArgInt(a)
	}
	c.enqueue(p)
	return p
}

// SetAsync pipelines SET key val.
func (c *Client) SetAsync(key, val int64) *Pending { return c.send(netproto.CmdSet, key, val) }

// DelAsync pipelines DEL key.
func (c *Client) DelAsync(key int64) *Pending { return c.send(netproto.CmdDel, key) }

// GetAsync pipelines GET key.
func (c *Client) GetAsync(key int64) *Pending { return c.send(netproto.CmdGet, key) }

// SumAsync pipelines SUM lo hi.
func (c *Client) SumAsync(lo, hi int64) *Pending { return c.send(netproto.CmdSum, lo, hi) }

// ScanAsync pipelines SCAN lo n: up to n entries with keys ≥ lo in
// ascending key order, merged across all shards from one consistent cut.
func (c *Client) ScanAsync(lo int64, n int) *Pending {
	return c.send(netproto.CmdScan, lo, int64(n))
}

// ScanChunkAsync pipelines SCANC lo n excl: one cursor page of up to n
// entries with keys ≥ lo (or > lo when excl), in ascending key order.
func (c *Client) ScanChunkAsync(lo int64, n int, excl bool) *Pending {
	var x int64
	if excl {
		x = 1
	}
	return c.send(netproto.CmdScanCursor, lo, int64(n), x)
}

// LenAsync pipelines LEN.
func (c *Client) LenAsync() *Pending { return c.send(netproto.CmdLen) }

// MCASAsync pipelines MCAS k1 e1 n1 [...]: swap every keys[i] from
// expects[i] to news[i] atomically, all or nothing.  A frame over
// netproto.MaxArgs — more than (MaxArgs-1)/3 keys — fails here: the server
// would drop the connection for it.
func (c *Client) MCASAsync(keys, expects, news []int64) *Pending {
	p := new(Pending)
	if len(keys) == 0 || len(keys) != len(expects) || len(keys) != len(news) {
		p.completeErr(&errorBox{errors.New("netclient: MCAS wants equal-length non-empty key/expect/new slices")})
		return p
	}
	if 1+3*len(keys) > netproto.MaxArgs {
		p.completeErr(&errorBox{fmt.Errorf("netclient: MCAS of %d keys exceeds the frame bound of %d", len(keys), (netproto.MaxArgs-1)/3)})
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead(p) {
		return p
	}
	c.w.BeginCommand(1 + 3*len(keys))
	c.w.ArgString(netproto.CmdMCAS)
	for i := range keys {
		c.w.ArgInt(keys[i])
		c.w.ArgInt(expects[i])
		c.w.ArgInt(news[i])
	}
	c.enqueue(p)
	return p
}

// PromoteAsync pipelines PROMOTE: a following server stops replicating
// and starts accepting writes.
func (c *Client) PromoteAsync() *Pending { return c.send(netproto.CmdPromote) }

// PingAsync pipelines PING.
func (c *Client) PingAsync() *Pending { return c.send(netproto.CmdPing) }

// StatsAsync pipelines STATS.
func (c *Client) StatsAsync() *Pending { return c.send(netproto.CmdStats) }

// Flush sends all encoded-but-buffered requests on their way.  It is a
// hand-off: the bytes move to the outbox and the flusher goroutine puts
// them on the wire, together with whatever else is encoded before it gets
// to write, with no further call.  A write that fails poisons the client,
// so the error surfaces on the next Flush or operation and on every
// outstanding Pending.  Waiting on a Pending without flushing first can
// deadlock a quiet connection — the synchronous wrappers and window-full
// sends flush for you.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if b := c.fail.Load(); b != nil {
		return b.err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.out.kick()
	return nil
}

// Set is the synchronous SET: flushes and waits.
func (c *Client) Set(key, val int64) error {
	p := c.SetAsync(key, val)
	c.Flush()
	return p.Err()
}

// Del is the synchronous DEL.
func (c *Client) Del(key int64) error {
	p := c.DelAsync(key)
	c.Flush()
	return p.Err()
}

// Get is the synchronous GET.
func (c *Client) Get(key int64) (int64, bool, error) {
	p := c.GetAsync(key)
	c.Flush()
	return p.Value()
}

// Sum is the synchronous SUM over [lo, hi].
func (c *Client) Sum(lo, hi int64) (int64, error) {
	p := c.SumAsync(lo, hi)
	c.Flush()
	return p.Int()
}

// Scan is the synchronous SCAN: up to n entries with keys ≥ lo.
func (c *Client) Scan(lo int64, n int) ([]Entry, error) {
	p := c.ScanAsync(lo, n)
	c.Flush()
	return p.Entries()
}

// ScanChunk is the synchronous SCANC: one cursor page.
func (c *Client) ScanChunk(lo int64, n int, excl bool) (ScanChunk, error) {
	p := c.ScanChunkAsync(lo, n, excl)
	c.Flush()
	return p.Chunk()
}

// Promote is the synchronous PROMOTE.
func (c *Client) Promote() error {
	p := c.PromoteAsync()
	c.Flush()
	return p.Err()
}

// Len is the synchronous LEN.
func (c *Client) Len() (int64, error) {
	p := c.LenAsync()
	c.Flush()
	return p.Int()
}

// MCAS is the synchronous multi-key compare-and-swap; true = swapped.
func (c *Client) MCAS(keys, expects, news []int64) (bool, error) {
	p := c.MCASAsync(keys, expects, news)
	c.Flush()
	n, err := p.Int()
	return n == 1, err
}

// Ping is the synchronous PING.
func (c *Client) Ping() error {
	p := c.PingAsync()
	c.Flush()
	return p.Err()
}

// Stats fetches the server's coalescing counters as "k=v ..." text.
func (c *Client) Stats() (string, error) {
	p := c.StatsAsync()
	c.Flush()
	return p.Text()
}

// Scanner iterates a key range in ascending order, fetching one SCANC
// page at a time:
//
//	sc := c.Scanner(0, 512)
//	for sc.Next() {
//		e := sc.Entry()
//		...
//	}
//	if err := sc.Err(); err != nil { ... }
//
// Each page is served from a fresh server-side snapshot, so a long
// iteration observes a sequence of consistent cuts rather than one; the
// keys still arrive in strictly ascending order with no duplicates.
type Scanner struct {
	c     *Client
	chunk int
	cur   int64
	excl  bool
	page  []Entry
	i     int // index of the current entry in page; -1 before first Next
	more  bool
	err   error
}

// Scanner starts an iteration at keys ≥ lo fetching pages of the given
// size (<= 0 means 512; above netproto.MaxScanPage means that bound).
func (c *Client) Scanner(lo int64, chunk int) *Scanner {
	if chunk <= 0 {
		chunk = 512
	}
	chunk = min(chunk, netproto.MaxScanPage)
	return &Scanner{c: c, chunk: chunk, cur: lo, i: -1, more: true}
}

// Next advances to the next entry, fetching a new page when the current
// one is exhausted; false means the range is done or the scan failed
// (check Err).
func (s *Scanner) Next() bool {
	if s.err != nil {
		return false
	}
	if s.i+1 < len(s.page) {
		s.i++
		return true
	}
	for s.more {
		ch, err := s.c.ScanChunk(s.cur, s.chunk, s.excl)
		if err != nil {
			s.err = err
			return false
		}
		s.page, s.i = ch.Entries, -1
		s.cur, s.excl, s.more = ch.Next, true, ch.More
		if len(s.page) > 0 {
			s.i = 0
			return true
		}
	}
	return false
}

// Entry returns the current entry; valid after a true Next.
func (s *Scanner) Entry() Entry { return s.page[s.i] }

// Err returns the first error the iteration hit, if any.
func (s *Scanner) Err() error { return s.err }

// Close puts everything encoded so far on the wire, closes the connection,
// and waits for the flusher to exit and the reader to finish failing or
// completing every outstanding Pending.  Safe to call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.w.Flush() //nolint:errcheck // a failed outbox has poisoned the client already
	c.out.close()
	close(c.queue) // senders are excluded by closed; reader drains and exits
	err := c.nc.Close()
	c.mu.Unlock()
	<-c.readDone
	return err
}
