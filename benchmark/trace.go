package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.  Spans are
// recorded from the benchmark's own files, around the calls into each
// layer's public functions; spans inside the program are a later change.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the causing span, -1 for a root
	op         int32 // spans of one op share its index in the replayed stream; -1 when not tied to one
	name       uint16
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends.  A nil *tracer records nothing, which is how the untraced passes
// run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
	// clockNs is the cost of one begin/end pair on this box, measured at
	// start-up and subtracted when span means are reported: a span around
	// a 10 ns call is otherwise mostly clock.
	clockNs float64
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), ids: map[string]uint16{}, spans: make([]span, 0, capacity)}
	const probes = 20000
	id := t.id("driver.clock")
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		t.end(t.begin(id, -1, -1))
	}
	t.clockNs = float64(time.Since(t0).Nanoseconds()) / probes
	t.spans = t.spans[:0]
	return t
}

// id interns a span name.
func (t *tracer) id(name string) uint16 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name uint16, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: now, parent: parent, op: op, name: name})
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n     int64
	sumNs float64 // clock cost already subtracted, floored at zero per span
}

func (s *spanStat) meanNs() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.sumNs / float64(s.n)
}

// stats aggregates the finished spans by name.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make([]*spanStat, len(t.names))
	for _, sp := range t.spans {
		if sp.end == 0 {
			continue
		}
		st := byID[sp.name]
		if st == nil {
			st = &spanStat{}
			byID[sp.name] = st
			out[t.names[sp.name]] = st
		}
		d := float64(sp.end-sp.start) - t.clockNs
		if d < 0 {
			d = 0
		}
		st.n++
		st.sumNs += d
	}
	return out
}

// writeFile dumps every span as one JSON array element per line:
// name, start and end in ns since the run began, parent span index, op id.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	fmt.Fprintf(w, "{\"clock_ns\": %.1f, \"spans\": [\n", t.clockNs)
	for i, sp := range t.spans {
		name, _ := json.Marshal(t.names[sp.name])
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%s,\"start\":%d,\"end\":%d,\"parent\":%d,\"op_id\":%d}%s\n",
			i, name, sp.start, sp.end, sp.parent, sp.op, sep)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
