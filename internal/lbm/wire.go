package lbm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// This file is the one serialized form of compiled state. A compiled plan
// is already flat slot-addressed integer arrays, so writing it down is
// copying those arrays: an envelope is a fixed header (magic, format
// version, body length, CRC-32C of the body) followed by a body of
// little-endian scalars and length-prefixed slabs, in the order the owning
// packages list their fields — CompiledPlan here; dense, cluster, fewtri,
// algo and core each contribute one put/get pair over WireWriter and
// WireReader. docs/PLANSTORE.md has the layout table.
//
// Envelopes cross a trust boundary (plan-store files, mesh job frames), so
// the reader checks every count against the bytes that remain before it
// allocates anything: a hostile length cannot make a decode allocate more
// than a fixed read-ahead plus a small constant times the input size.

const (
	wireMagicLen  = 8
	wireHeaderLen = wireMagicLen + 4 + 4 + 4

	// MaxWireBytes caps an envelope, header included (the dist job frame
	// that carries one has the same 64 MiB bound).
	MaxWireBytes = 64 << 20

	// wireReadAhead is how much of a declared body length ReadWire takes on
	// trust when sizing its buffer, before any of the body has arrived.
	wireReadAhead = 64 << 10

	// planWireMin is the least a CompiledPlan occupies in a body: N, eight
	// empty slabs and HasSub.
	planWireMin = 8 + 8*4 + 1
)

var (
	le      = binary.LittleEndian
	wireCRC = crc32.MakeTable(crc32.Castagnoli)
)

// ErrWireVersion reports an intact header written under another format
// version. Every other ReadWire or WireReader failure means the bytes are
// damaged.
var ErrWireVersion = errors.New("lbm: envelope format version mismatch")

// WireWriter appends one envelope body behind a reserved header.
type WireWriter struct{ buf []byte }

// NewWireWriter starts an envelope with the given 8-byte magic and version.
func NewWireWriter(magic string, version uint32) *WireWriter {
	if len(magic) != wireMagicLen {
		panic(fmt.Sprintf("lbm: envelope magic %q is not %d bytes", magic, wireMagicLen))
	}
	w := &WireWriter{buf: make([]byte, wireHeaderLen, 4096)}
	copy(w.buf, magic)
	le.PutUint32(w.buf[wireMagicLen:], version)
	return w
}

// Bytes seals the envelope — body length and checksum go into the header —
// and returns it.
func (w *WireWriter) Bytes() ([]byte, error) {
	if len(w.buf) > MaxWireBytes {
		return nil, fmt.Errorf("lbm: envelope of %d bytes exceeds the %d-byte limit", len(w.buf), MaxWireBytes)
	}
	body := w.buf[wireHeaderLen:]
	le.PutUint32(w.buf[wireMagicLen+4:], uint32(len(body)))
	le.PutUint32(w.buf[wireMagicLen+8:], crc32.Checksum(body, wireCRC))
	return w.buf, nil
}

func (w *WireWriter) Int32(v int32)     { w.buf = le.AppendUint32(w.buf, uint32(v)) }
func (w *WireWriter) Int(v int)         { w.buf = le.AppendUint64(w.buf, uint64(int64(v))) }
func (w *WireWriter) Float64(f float64) { w.buf = le.AppendUint64(w.buf, math.Float64bits(f)) }

func (w *WireWriter) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	w.buf = append(w.buf, v)
}

// Count writes a slab's element count; the elements follow.
func (w *WireWriter) Count(n int) { w.buf = le.AppendUint32(w.buf, uint32(n)) }

func (w *WireWriter) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

func (w *WireWriter) Int32s(s []int32) {
	w.Count(len(s))
	for _, v := range s {
		w.buf = le.AppendUint32(w.buf, uint32(v))
	}
}

func (w *WireWriter) Ops(s []Op) {
	w.Count(len(s))
	for _, op := range s {
		w.buf = append(w.buf, byte(op))
	}
}

func (w *WireWriter) Ref(r SlotRef) {
	w.Int32(r.Node)
	w.Int32(r.Slot)
}

func (w *WireWriter) Refs(s []SlotRef) {
	w.Count(len(s))
	for _, r := range s {
		w.Ref(r)
	}
}

// Plan writes a compiled plan field by field. Span metrics go out in key
// order, so encoding one plan twice gives identical bytes.
func (w *WireWriter) Plan(cp *CompiledPlan) {
	w.Int(cp.N)
	w.Int32s(cp.NumSlots)
	w.Int32s(cp.From)
	w.Int32s(cp.To)
	w.Int32s(cp.SrcSlot)
	w.Int32s(cp.DstSlot)
	w.Ops(cp.Ops)
	w.Int32s(cp.RoundOff)
	w.Int32s(cp.Real)
	w.Count(len(cp.Spans))
	for _, s := range cp.Spans {
		w.String(s.Label)
		w.Int(s.Start)
		w.Int(s.End)
		keys := make([]string, 0, len(s.Metrics))
		for k := range s.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Count(len(keys))
		for _, k := range keys {
			w.String(k)
			w.Float64(s.Metrics[k])
		}
	}
	w.Bool(cp.HasSub)
}

func (w *WireWriter) Plans(cps []*CompiledPlan) {
	w.Count(len(cps))
	for _, cp := range cps {
		w.Plan(cp)
	}
}

// WireReader reads an envelope body front to back. The first failure
// sticks: every later read returns a zero value, so a get function lists
// its fields without checking each one and its caller asks Err once, before
// it trusts what was read.
type WireReader struct {
	buf []byte // unread body
	err error
}

// ReadWire reads one envelope from r: the header first — magic and version
// are checked before anything else, so an intact envelope of another
// version reports ErrWireVersion rather than damage — then exactly the body
// the header declares, whose checksum must match. The stream must end where
// the header says it does. At most MaxWireBytes are read, and the buffer
// grows toward a declared length only as the bytes actually arrive.
func ReadWire(r io.Reader, magic string, version uint32) (*WireReader, error) {
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("lbm: envelope header: %w", err)
	}
	if got := string(hdr[:wireMagicLen]); got != magic {
		return nil, fmt.Errorf("lbm: envelope magic %q (want %q)", got, magic)
	}
	if got := le.Uint32(hdr[wireMagicLen:]); got != version {
		return nil, fmt.Errorf("%w: envelope version %d (this build reads %d)", ErrWireVersion, got, version)
	}
	n := int64(le.Uint32(hdr[wireMagicLen+4:]))
	if n > MaxWireBytes-wireHeaderLen {
		return nil, fmt.Errorf("lbm: envelope declares a %d-byte body, over the %d-byte limit", n, MaxWireBytes)
	}
	var body bytes.Buffer
	body.Grow(int(min(n, wireReadAhead)) + bytes.MinRead)
	// Ask for one byte past the body: a well-formed stream stops short of it.
	got, err := io.CopyN(&body, r, n+1)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("lbm: envelope body: %w", err)
	}
	switch {
	case got < n:
		return nil, fmt.Errorf("lbm: envelope declares a %d-byte body, stream ends after %d", n, got)
	case got > n:
		return nil, fmt.Errorf("lbm: envelope has bytes after its %d-byte body", n)
	}
	if want, sum := le.Uint32(hdr[wireMagicLen+8:]), crc32.Checksum(body.Bytes(), wireCRC); want != sum {
		return nil, fmt.Errorf("lbm: envelope checksum %08x, body hashes to %08x", want, sum)
	}
	return &WireReader{buf: body.Bytes()}, nil
}

// Fail records err as the reader's failure unless one is already recorded.
// Get functions use it to report decoded state that fails validation.
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first failure, if any.
func (r *WireReader) Err() error { return r.err }

// Close returns the first failure, or an error if body bytes remain unread.
func (r *WireReader) Close() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("lbm: envelope has %d trailing bytes", len(r.buf))
	}
	return r.err
}

// take consumes n bytes, or fails and returns nil.
func (r *WireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.err = fmt.Errorf("lbm: envelope truncated: need %d bytes, %d remain", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *WireReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *WireReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *WireReader) Int32() int32     { return int32(r.u32()) }
func (r *WireReader) Float64() float64 { return math.Float64frombits(r.u64()) }

func (r *WireReader) Int() int {
	v := int64(r.u64())
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("lbm: envelope integer %d overflows int", v))
		return 0
	}
	return int(v)
}

func (r *WireReader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail(fmt.Errorf("lbm: envelope flag byte %d", b[0]))
	}
	return b[0] == 1
}

// Count reads a slab's element count and checks that count elements of at
// least elemBytes each fit in the bytes that remain — before the caller
// allocates for them.
func (r *WireReader) Count(elemBytes int) int {
	n := uint64(r.u32())
	if n*uint64(elemBytes) > uint64(len(r.buf)) {
		r.Fail(fmt.Errorf("lbm: envelope slab declares %d elements of %d bytes, %d bytes remain", n, elemBytes, len(r.buf)))
		return 0
	}
	return int(n)
}

func (r *WireReader) String() string { return string(r.take(r.Count(1))) }

func (r *WireReader) Int32s() []int32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	b := r.take(4 * n)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(le.Uint32(b[4*i:]))
	}
	return out
}

func (r *WireReader) Ops() []Op {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Op, n)
	for i, v := range r.take(n) {
		out[i] = Op(v)
	}
	return out
}

func (r *WireReader) Ref() SlotRef { return SlotRef{Node: r.Int32(), Slot: r.Int32()} }

func (r *WireReader) Refs() []SlotRef {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	b := r.take(8 * n)
	out := make([]SlotRef, n)
	for i := range out {
		out[i] = SlotRef{Node: int32(le.Uint32(b[8*i:])), Slot: int32(le.Uint32(b[8*i+4:]))}
	}
	return out
}

// Plan reads a compiled plan and validates it: a plan that comes out of a
// reader without a recorded failure satisfies CompiledPlan.Validate.
func (r *WireReader) Plan() *CompiledPlan {
	cp := &CompiledPlan{
		N:        r.Int(),
		NumSlots: r.Int32s(),
		From:     r.Int32s(),
		To:       r.Int32s(),
		SrcSlot:  r.Int32s(),
		DstSlot:  r.Int32s(),
		Ops:      r.Ops(),
		RoundOff: r.Int32s(),
		Real:     r.Int32s(),
	}
	if n := r.Count(4 + 8 + 8 + 4); n > 0 {
		cp.Spans = make([]PhaseSpan, n)
	}
	for i := range cp.Spans {
		s := &cp.Spans[i]
		s.Label, s.Start, s.End = r.String(), r.Int(), r.Int()
		if n := r.Count(4 + 8); n > 0 {
			s.Metrics = make(map[string]float64, n)
			for ; n > 0; n-- {
				k := r.String()
				s.Metrics[k] = r.Float64()
			}
		}
	}
	cp.HasSub = r.Bool()
	if r.err == nil {
		if err := cp.Validate(); err != nil {
			r.err = err
		}
	}
	return cp
}

func (r *WireReader) Plans() []*CompiledPlan {
	n := r.Count(planWireMin)
	if n == 0 {
		return nil
	}
	out := make([]*CompiledPlan, n)
	for i := range out {
		out[i] = r.Plan()
	}
	return out
}
