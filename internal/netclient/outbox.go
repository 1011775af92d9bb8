package netclient

import (
	"net"
	"sync"
)

// outboxCap bounds each half of the outbox's double buffer.  Together with
// the encoder's own buffer it is all a client ever holds for a peer that
// has stopped reading: the encoder blocks beyond it.
const outboxCap = 64 << 10

// encoderBuf is the size of the encoder's buffer in front of the outbox.
// The outbox is what batches socket writes, so this one only has to hold a
// typical frame between the encoder's byte-sized writes and outbox.Write.
const encoderBuf = 4 << 10

// outbox is the client→server half of the coalescing path: a double buffer
// between the encoder and the socket.  Encoded bytes are appended to fill;
// the flusher goroutine (run), the socket's only writer, swaps fill for the
// empty half and puts the whole of it on the wire in one Write, so requests
// encoded while a Write is in flight ride the next one and wire order is
// the order bytes entered fill.
type outbox struct {
	nc   net.Conn
	fail func(error) // poisons the client on the first write error

	mu      sync.Mutex
	fill    []byte // handed off, not yet on the wire
	spare   []byte // the other half: empty, or on the wire right now
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

// run is the flusher: it puts fill on the wire, one Write per swap, until
// a Write fails or close has been called and fill is drained.
func (o *outbox) run() {
	defer close(o.done)
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.err == nil {
		if len(o.fill) == 0 {
			if o.closing {
				return
			}
			o.work.Wait()
			continue
		}
		buf := o.fill
		o.fill, o.spare = o.spare[:0], buf
		o.room.Broadcast() // fill is empty again
		o.mu.Unlock()
		_, err := o.nc.Write(buf)
		o.mu.Lock()
		if err != nil {
			o.err = err
			o.fail(err)
			o.room.Broadcast() // blocked encoders fail instead of waiting
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
