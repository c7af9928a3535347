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
	"sync"
)

// This file is the one serialized form of compiled state. A compiled
// program is already flat slot-addressed integer slabs, so writing it down
// is copying those slabs: an envelope is a fixed header (magic, format
// version, body length, CRC-32C of the body) followed by a body of
// little-endian scalars and length-prefixed slabs, in the order the owning
// packages list their fields — Program and CompiledPlan here; algo and core
// each contribute one put/get pair over WireWriter and WireReader.
// docs/PLANSTORE.md has the layout table.
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

	// maxPooledWire is the largest body buffer Close returns to wireBufs; a
	// larger one is dropped, so one huge envelope does not pin its buffer
	// for the life of the process.
	maxPooledWire = 1 << 20

	// planWireMin is the least a CompiledPlan occupies in a body: N, six
	// empty slabs and an empty span list.
	planWireMin = 8 + 7*4

	// stepWire is a Step's size in a body: kind, arg, lo and hi.
	stepWire = 1 + 3*4
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

// Plan writes a compiled plan field by field: what the compiler chose, not
// what validate derives from it. Span metrics go out in key order, so
// encoding one plan twice gives identical bytes.
func (w *WireWriter) Plan(cp *CompiledPlan) {
	w.Int(cp.N)
	w.Int32s(cp.From)
	w.Int32s(cp.To)
	w.Int32s(cp.SrcSlot)
	w.Int32s(cp.DstSlot)
	w.Ops(cp.Ops)
	w.Int32s(cp.RoundOff)
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
}

// Program writes a program's slabs, the clears last: what Finish derives
// is not written.
func (w *WireWriter) Program(p *Program) {
	w.Int(p.N)
	w.Int(p.Split)
	w.Count(len(p.Labels))
	for _, l := range p.Labels {
		w.String(l)
	}
	w.Count(len(p.Steps))
	for _, s := range p.Steps {
		w.buf = append(w.buf, byte(s.Kind))
		w.Int32(s.Arg)
		w.Int32(s.Lo)
		w.Int32(s.Hi)
	}
	w.Count(len(p.Routes))
	for _, r := range p.Routes {
		w.Int32(r.Row)
		w.Int32(r.Fail)
		w.Bool(r.Join)
		w.Plan(r.Plan)
	}
	w.Count(len(p.Prods))
	for _, pr := range p.Prods {
		w.Ref(pr.A)
		w.Ref(pr.B)
		w.Ref(pr.Dst)
	}
	w.Count(len(p.Leaves))
	for _, l := range p.Leaves {
		w.Int32(l.Host)
		w.Int32(l.Size)
		w.Int32(l.Tab)
	}
	w.Int32s(p.Tables)
	w.Count(len(p.Counts))
	for _, c := range p.Counts {
		w.Int32(c.Host)
		w.Float64(c.V)
	}
	w.Refs(p.Clears)
}

// WireReader reads an envelope body front to back. The first failure
// sticks: every later read returns a zero value, so a get function lists
// its fields without checking each one and its caller asks Err once, before
// it trusts what was read. Every getter copies what it returns, so nothing
// read aliases the body buffer, which Close hands back to a pool.
type WireReader struct {
	buf   []byte        // unread body
	body  *bytes.Buffer // the pooled buffer buf lies in; nil once released
	err   error
	rules *rules // the model-rule scratch every plan of the body shares
}

// wireBufs recycles the buffers ReadWire reads bodies into.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putWireBuf returns b to wireBufs unless it grew past maxPooledWire.
func putWireBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledWire {
		wireBufs.Put(b)
	}
}

// ReadWire reads one envelope from r: the header first — magic and version
// are checked before anything else, so an intact envelope of another
// version reports ErrWireVersion rather than damage — then exactly the body
// the header declares, whose checksum must match. The stream must end where
// the header says it does. At most MaxWireBytes are read, and the buffer
// grows toward a declared length only as the bytes actually arrive.
//
// The body is read into a buffer from a pool, and the reader owns it until
// Close hands it back; on failure ReadWire hands it back itself. A pooled
// buffer keeps the capacity an earlier body gave it, but is grown from
// there by the same rule as a fresh one.
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
	body := wireBufs.Get().(*bytes.Buffer)
	body.Reset()
	body.Grow(int(min(n, wireReadAhead)) + bytes.MinRead)
	if err := readBody(body, r, n, le.Uint32(hdr[wireMagicLen+8:])); err != nil {
		putWireBuf(body)
		return nil, err
	}
	return &WireReader{buf: body.Bytes(), body: body}, nil
}

// readBody reads exactly the n-byte body into body and checks its sum.
func readBody(body *bytes.Buffer, r io.Reader, n int64, sum uint32) error {
	// Ask for one byte past the body: a well-formed stream stops short of it.
	got, err := io.CopyN(body, r, n+1)
	if err != nil && err != io.EOF {
		return fmt.Errorf("lbm: envelope body: %w", err)
	}
	switch {
	case got < n:
		return fmt.Errorf("lbm: envelope declares a %d-byte body, stream ends after %d", n, got)
	case got > n:
		return fmt.Errorf("lbm: envelope has bytes after its %d-byte body", n)
	}
	if got := crc32.Checksum(body.Bytes(), wireCRC); got != sum {
		return fmt.Errorf("lbm: envelope checksum %08x, body hashes to %08x", sum, got)
	}
	return nil
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

// Close returns the first failure, or an error if body bytes remain unread,
// and hands the body buffer back to ReadWire's pool. Call it once decoding
// ends, on every path: what was read stays valid (getters copy), but the
// reader reads nothing more, and a second Close only repeats the result.
func (r *WireReader) Close() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("lbm: envelope has %d trailing bytes", len(r.buf))
	}
	if r.body != nil {
		putWireBuf(r.body)
		r.body, r.buf = nil, nil
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

// RowLists reads k lists of n rows each — a row count, which must be n,
// then each row as Int32s writes it — into one offsets slab of k·(n+1)
// entries and one column slab. List t's offsets are
// off[t·(n+1) : (t+1)·(n+1)], counted from 0 at its first column, and its
// columns follow list t-1's in col. The counts are walked first, with
// Count's checks, so both slabs are sized from rows that fit in the bytes
// that remain; on a failure nothing is allocated and both are nil.
func (r *WireReader) RowLists(k, n int) (off, col []int32) {
	if r.err != nil {
		return nil, nil
	}
	peek, total := WireReader{buf: r.buf}, 0
	for range k {
		if rows := peek.Count(4); peek.err == nil && rows != n {
			peek.Fail(fmt.Errorf("lbm: envelope row list of %d rows, want %d", rows, n))
		}
		for range n {
			if peek.err != nil {
				break
			}
			c := peek.Count(4)
			peek.take(4 * c)
			total += c
		}
	}
	if peek.err != nil {
		r.Fail(peek.err)
		return nil, nil
	}
	off, col = make([]int32, k*(n+1)), make([]int32, total)
	at := 0
	for t := range k {
		r.u32()
		lo := t * (n + 1)
		for i := range n {
			c := int(r.u32())
			b := r.take(4 * c)
			for j := range c {
				col[at+j] = int32(le.Uint32(b[4*j:]))
			}
			at += c
			off[lo+i+1] = off[lo+i] + int32(c)
		}
	}
	return off, col
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

// Plan reads a compiled plan for an n-node machine and validates it: a plan
// that comes out of a reader without a recorded failure satisfies the model
// rules and carries its derived Real and HasSub. A plan for another machine
// size fails before anything is allocated for it, so the per-node scratch
// of validate is sized by the caller's n, not by the bytes.
func (r *WireReader) Plan(n int) *CompiledPlan {
	cp := &CompiledPlan{N: r.Int()}
	if r.err == nil && cp.N != n {
		r.err = fmt.Errorf("lbm: compiled plan for %d nodes on a %d-node machine", cp.N, n)
	}
	cp.From, cp.To = r.Int32s(), r.Int32s()
	cp.SrcSlot, cp.DstSlot = r.Int32s(), r.Int32s()
	cp.Ops, cp.RoundOff = r.Ops(), r.Int32s()
	if c := r.Count(4 + 8 + 8 + 4); c > 0 {
		cp.Spans = make([]PhaseSpan, c)
	}
	for i := range cp.Spans {
		s := &cp.Spans[i]
		s.Label, s.Start, s.End = r.String(), r.Int(), r.Int()
		if c := r.Count(4 + 8); c > 0 {
			s.Metrics = make(map[string]float64, c)
			for ; c > 0; c-- {
				k := r.String()
				s.Metrics[k] = r.Float64()
			}
		}
	}
	if r.err == nil {
		if r.rules == nil || len(r.rules.sent) != n {
			r.rules = newRules(n)
		}
		r.err = cp.validate(r.rules)
	}
	return cp
}

// Program reads a program for an n-node machine and finishes it: a
// program that comes out of a reader without a recorded failure has plans
// that satisfy the model rules and steps that fit its slabs and machine
// (Program.Finish). A program for another machine size fails before
// anything is allocated for it.
func (r *WireReader) Program(n int) *Program {
	p := &Program{N: r.Int(), Split: r.Int()}
	if r.err == nil && p.N != n {
		r.err = fmt.Errorf("lbm: program for %d nodes on a %d-node machine", p.N, n)
	}
	if c := r.Count(4); c > 0 {
		p.Labels = make([]string, c)
		for i := range p.Labels {
			p.Labels[i] = r.String()
		}
	}
	if c := r.Count(stepWire); c > 0 {
		b := r.take(stepWire * c)
		p.Steps = make([]Step, c)
		for i := range p.Steps {
			e := b[stepWire*i:]
			p.Steps[i] = Step{Kind: StepKind(e[0]), Arg: int32(le.Uint32(e[1:])), Lo: int32(le.Uint32(e[5:])), Hi: int32(le.Uint32(e[9:]))}
		}
	}
	if c := r.Count(2*4 + 1 + planWireMin); c > 0 {
		p.Routes = make([]Route, c)
		for i := range p.Routes {
			p.Routes[i] = Route{Row: r.Int32(), Fail: r.Int32(), Join: r.Bool(), Plan: r.Plan(n)}
		}
	}
	if c := r.Count(3 * 8); c > 0 {
		p.Prods = make([]Prod, c)
		for i := range p.Prods {
			p.Prods[i] = Prod{A: r.Ref(), B: r.Ref(), Dst: r.Ref()}
		}
	}
	if c := r.Count(3 * 4); c > 0 {
		p.Leaves = make([]Leaf, c)
		for i := range p.Leaves {
			p.Leaves[i] = Leaf{Host: r.Int32(), Size: r.Int32(), Tab: r.Int32()}
		}
	}
	p.Tables = r.Int32s()
	if c := r.Count(4 + 8); c > 0 {
		p.Counts = make([]Count, c)
		for i := range p.Counts {
			p.Counts[i] = Count{Host: r.Int32(), V: r.Float64()}
		}
	}
	p.Clears = r.Refs()
	if r.err == nil {
		r.err = p.Finish()
	}
	return p
}
