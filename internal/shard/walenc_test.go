package shard

import (
	"encoding/binary"
	"io"
	"slices"
	"strings"
	"testing"

	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// fieldLens are the key and value lengths the encoder tests cover: uvarint
// length prefixes of one (0 through 127), two (128, 300) and three bytes
// (20 000).
var fieldLens = []int{0, 1, 8, 127, 128, 300, 20_000}

// field returns n bytes that differ with seed, as a string.
func field(n int, seed byte) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return string(b)
}

// strWAL binds log with raw-bytes string codecs, the codec a logged DB of
// strings uses.
func strWAL(log *wal.Log) *WALConfig[string, string] {
	enc := func(dst []byte, s string) []byte { return append(dst, s...) }
	dec := func(b []byte) (string, error) { return string(b), nil }
	return &WALConfig[string, string]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}
}

// openStrMap opens (or re-opens) a string map of 4 shards logging to "wal"
// on fs, recovering what the log holds.
func openStrMap(t *testing.T, fs wal.FS) (*Map[string, string, struct{}], *wal.Recovered) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(
		Config[string]{Shards: 4, Procs: 4, Hash: func(k string) uint64 {
			h := uint64(14695981039346656037)
			for i := 0; i < len(k); i++ {
				h = (h ^ uint64(k[i])) * 1099511628211
			}
			return h
		}},
		func() *ftree.Ops[string, string, struct{}] {
			return ftree.New[string, string, struct{}](strings.Compare, ftree.NoAug[string, string](), 0)
		},
		nil, strWAL(log), rec,
	)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// refOp is the op encoding as it was written before fields were encoded in
// place: each field encoded on its own, then its uvarint length and its
// bytes appended.
func refOp(dst []byte, tag byte, fields ...string) []byte {
	dst = append(dst, tag)
	for _, f := range fields {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

// TestWALEncodeBytesIdentical: every insert and delete op, for every pair
// of key and value lengths, encodes to the same bytes as the separate
// encode-then-copy did, appended at any offset of a growing record, and
// decodes back to its fields.
func TestWALEncodeBytesIdentical(t *testing.T) {
	cfg := strWAL(nil)
	e := &walEnc[string, string]{cfg: cfg}
	var want []byte
	type op struct{ k, v string }
	var ops []op
	for i, kl := range fieldLens {
		for j, vl := range fieldLens {
			k, v := field(kl, byte(i)), field(vl, byte(j+7))
			e.appendInsert(k, v)
			want = refOp(want, walOpInsert, k, v)
			ops = append(ops, op{k, v})
		}
		k := field(kl, byte(i+3))
		e.appendDelete(k)
		want = refOp(want, walOpDelete, k)
		ops = append(ops, op{k: k, v: "\x00deleted"})
		if !slices.Equal(e.buf, want) {
			t.Fatalf("after key length %d: record of %d bytes differs from the reference encoding of %d bytes", kl, len(e.buf), len(want))
		}
	}
	var got []op
	err := decodeWALOps(cfg, e.buf,
		func(k, v string) { got = append(got, op{k, v}) },
		func(k string) { got = append(got, op{k: k, v: "\x00deleted"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ops) {
		t.Fatal("the record does not decode back to the ops encoded into it")
	}

	// Fixed-width integer fields, the codecs of an integer-keyed DB.
	u := &walEnc[uint64, uint64]{cfg: u64WAL(nil)}
	var uwant []byte
	for k := uint64(0); k < 300; k += 37 {
		u.appendInsert(k, k<<40|k)
		var kb, vb [8]byte
		binary.LittleEndian.PutUint64(kb[:], k)
		binary.LittleEndian.PutUint64(vb[:], k<<40|k)
		uwant = refOp(uwant, walOpInsert, string(kb[:]), string(vb[:]))
	}
	if !slices.Equal(u.buf, uwant) {
		t.Fatal("integer record differs from the reference encoding")
	}
}

// latestSnapshotPayload reads the log's newest checkpoint file back and
// returns its payload.
func latestSnapshotPayload(t *testing.T, log *wal.Log) []byte {
	t.Helper()
	f, _, _, err := log.LatestSnapshot()
	if err != nil || f == nil {
		t.Fatalf("no snapshot to read back: %v", err)
	}
	defer f.Close()
	file, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, ok := wal.DecodeSnapshot(file)
	if !ok {
		t.Fatal("snapshot file does not decode")
	}
	return payload
}

// TestWALCheckpointBytesIdentical: the logged records and the checkpoint
// payloads of a string map holding fields of every length are the bytes
// the encode-then-copy encoder wrote: records one op each in commit order,
// snapshots shard by shard in key order.  Checkpoints run cold (the buffer
// grows by append), presized from a previous one while the map has grown
// past the estimate, and presized over unchanged contents.
func TestWALCheckpointBytesIdentical(t *testing.T) {
	m, _ := openStrMap(t, wal.NewMemFS())
	defer m.Close()
	log := m.wal.log
	tail, err := log.Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	model := map[string]string{}
	var records [][]byte
	write := func(k, v string) {
		t.Helper()
		if err := m.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
		records = append(records, refOp(nil, walOpInsert, k, v))
	}
	snapshot := func() []byte {
		var want []byte
		for i := range m.shards {
			var keys []string
			for k := range model {
				if m.ShardFor(k) == i {
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				want = refOp(want, walOpInsert, k, model[k])
			}
		}
		return want
	}
	var got [][]byte // drained before each checkpoint retires what it covers
	drain := func() { drainTail(t, tail, func(p []byte) { got = append(got, slices.Clone(p)) }) }
	checkpoint := func(when string) {
		t.Helper()
		drain()
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got, want := latestSnapshotPayload(t, log), snapshot(); !slices.Equal(got, want) {
			t.Fatalf("%s checkpoint: payload of %d bytes differs from the reference encoding of %d bytes", when, len(got), len(want))
		}
	}

	for i, kl := range fieldLens {
		for j, vl := range fieldLens {
			write(field(kl, byte(j)), field(vl, byte(i+j)))
		}
	}
	checkpoint("cold")
	for j, vl := range fieldLens {
		write(field(20_000+j, 1), field(vl, 2)) // past the estimate: long keys, every value length
	}
	k := field(300, 0)
	if err := m.Delete(k); err != nil {
		t.Fatal(err)
	}
	delete(model, k)
	records = append(records, refOp(nil, walOpDelete, k))
	checkpoint("grown")
	checkpoint("unchanged")

	drain()
	if len(got) != len(records) {
		t.Fatalf("log holds %d records, want %d", len(got), len(records))
	}
	for i := range got {
		if !slices.Equal(got[i], records[i]) {
			t.Fatalf("record %d: %d bytes differ from the reference encoding of %d bytes", i, len(got[i]), len(records[i]))
		}
	}
}

// TestWALStringRoundTrip: a string-keyed logged map of 200-byte keys and
// values — every length prefix two bytes — comes back from its checkpoint
// and the records above it exactly as it was.
func TestWALStringRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := openStrMap(t, fs)
	k200 := func(i int) string {
		b := []byte(field(200, byte(i)))
		binary.LittleEndian.PutUint32(b, uint32(i))
		return string(b)
	}
	for i := 0; i < 600; i++ {
		if err := m.Insert(k200(i), field(200, byte(i*7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i += 3 {
		if err := m.Insert(k200(i), field(200, byte(i*11))); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(k200(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{}
	m.View(func(s Snap[string, string, struct{}]) {
		s.ForEachCond(func(k, v string) bool { want[k] = v; return true })
	})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec := openStrMap(t, fs)
	defer m2.Close()
	if rec.Snapshot == nil || len(rec.Records) == 0 {
		t.Fatalf("recovered snapshot=%v with %d records; the test needs both", rec.Snapshot != nil, len(rec.Records))
	}
	n := 0
	m2.View(func(s Snap[string, string, struct{}]) {
		s.ForEachCond(func(k, v string) bool {
			if w, ok := want[k]; !ok || w != v {
				t.Fatalf("recovered key %x... with a value not written", k[:4])
			}
			n++
			return true
		})
	})
	if n != len(want) {
		t.Fatalf("recovered %d keys, want %d", n, len(want))
	}
}
