package netclient

import (
	"net"
	"sync"
)

// outboxCap bounds each half of the outbox's double buffer.  Together with
// the encoder's own buffer it is all a client ever holds for a peer that
// has stopped reading: the encoder blocks beyond it.
const outboxCap = 64 << 10

// outbox is the client→server half of the coalescing path: a double buffer
// between the encoder and the socket.  Encoded bytes are appended to fill;
// whoever writes swaps fill for the empty half and puts the whole of it on
// the wire in one Write, so requests encoded while a Write is in flight
// ride the next one.  The usual writer is the flusher goroutine (run); a
// caller about to block on a reply may write itself (writeNow) when no
// Write is in flight.  At most one Write is in flight, which keeps wire
// order the order bytes entered fill.
type outbox struct {
	nc   net.Conn
	fail func(error) // poisons the client on the first write error

	mu      sync.Mutex
	fill    []byte // handed off, not yet on the wire
	spare   []byte // the empty half (nil while a Write holds it)
	writing bool   // a Write is in flight
	closing bool   // close was called: the flusher drains fill and exits
	err     error  // first write error; sticky
	work    sync.Cond
	room    sync.Cond
	done    chan struct{} // closed when the flusher has exited
}

func (o *outbox) start(nc net.Conn, fail func(error)) {
	o.nc, o.fail = nc, fail
	o.work.L, o.room.L = &o.mu, &o.mu
	o.done = make(chan struct{})
	go o.run()
}

// Write appends p to fill.  It blocks while that would take a non-empty
// fill past outboxCap, and fails once a socket write has failed.
func (o *outbox) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.err == nil && len(o.fill) > 0 && len(o.fill)+len(p) > outboxCap {
		o.work.Signal()
		o.room.Wait()
	}
	if o.err != nil {
		return 0, o.err
	}
	o.fill = append(o.fill, p...)
	return len(p), nil
}

// kick tells the flusher there are bytes to write.  Lock-free on purpose:
// the flusher joins the wait list before it releases mu, so a Signal after
// the Write that filled the buffer cannot be lost, and with the flusher
// busy it costs one atomic load.
func (o *outbox) kick() { o.work.Signal() }

// writeNow writes fill from the calling goroutine unless a Write is in
// flight, in which case the bytes ride the next one.
func (o *outbox) writeNow() {
	o.mu.Lock()
	if !o.writing && len(o.fill) > 0 && o.err == nil {
		o.writeLocked()
	}
	if !o.writing && (len(o.fill) > 0 || o.closing) {
		o.work.Signal() // what arrived meanwhile is the flusher's
	}
	o.mu.Unlock()
}

// writeLocked puts fill on the wire in one Write.  Called with mu held
// and no Write in flight; mu is released for the Write itself.
func (o *outbox) writeLocked() {
	buf := o.fill
	o.fill, o.spare = o.spare[:0], nil
	o.writing = true
	o.room.Broadcast() // fill is empty again
	o.mu.Unlock()
	_, err := o.nc.Write(buf)
	o.mu.Lock()
	o.writing = false
	o.spare = buf[:0]
	if err != nil && o.err == nil {
		o.err = err
		o.fail(err)
		o.room.Broadcast() // blocked encoders fail instead of waiting
	}
}

// run is the flusher: it writes whenever fill is non-empty and nobody else
// is writing, until a write fails or close has been called and fill is
// drained.
func (o *outbox) run() {
	defer close(o.done)
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.err == nil {
		switch {
		case !o.writing && len(o.fill) > 0:
			o.writeLocked()
		case !o.writing && o.closing:
			return
		default:
			o.work.Wait()
		}
	}
}

// close drains fill to the wire and stops the flusher.
func (o *outbox) close() {
	o.mu.Lock()
	o.closing = true
	o.work.Signal()
	o.mu.Unlock()
	<-o.done
}
