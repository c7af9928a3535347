package lbm

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/ring"
)

const (
	testMagic   = "lbmmtest"
	testVersion = 7
)

// wirePlan compiles a random plan with a multi-key span annotation (so the
// metric ordering matters) into a slot space of its own.
func wirePlan(t *testing.T, seed int64, sub bool) (*Plan, []load, *SlotSpace, *CompiledPlan) {
	t.Helper()
	p, loads := randomPlan(rand.New(rand.NewSource(seed)), 6, 8, sub)
	p.Annotate("wire", map[string]float64{"kappa": 2, "delta": 0.5, "depth": 3, "alpha": 1.867})
	sp := NewSlotSpace(6)
	cp, err := CompileInto(sp, p)
	if err != nil {
		t.Fatal(err)
	}
	return p, loads, sp, cp
}

// seal returns w's envelope.
func seal(t *testing.T, w *WireWriter) []byte {
	t.Helper()
	env, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestWireRoundTrip writes one value of every encoding and two compiled
// plans, and checks the reader returns them deep-equal, that the decoded
// plan executes to the map engine's stats, and that writing is byte-stable.
func TestWireRoundTrip(t *testing.T) {
	p, loads, sp, cp := wirePlan(t, 3, false)
	_, _, _, cpSub := wirePlan(t, 4, true)
	refs := []SlotRef{{Node: 0, Slot: 1}, {Node: 5, Slot: 0}}
	write := func() []byte {
		w := NewWireWriter(testMagic, testVersion)
		w.Int(-42)
		w.Int32(-7)
		w.Bool(true)
		w.Float64(1.832)
		w.String("theorem42")
		w.String("")
		w.Int32s([]int32{3, -1, 4})
		w.Int32s(nil)
		w.Refs(refs)
		w.Plan(cp)
		w.Plans([]*CompiledPlan{cp, cpSub})
		return seal(t, w)
	}
	env := write()
	if !bytes.Equal(env, write()) {
		t.Fatal("writing the same values twice gave different bytes")
	}
	r, err := ReadWire(bytes.NewReader(env), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if a, b, c, d := r.Int(), r.Int32(), r.Bool(), r.Float64(); a != -42 || b != -7 || !c || d != 1.832 {
		t.Fatalf("scalars read back as %d %d %v %v", a, b, c, d)
	}
	if a, b := r.String(), r.String(); a != "theorem42" || b != "" {
		t.Fatalf("strings read back as %q %q", a, b)
	}
	if a, b := r.Int32s(), r.Int32s(); !reflect.DeepEqual(a, []int32{3, -1, 4}) || b != nil {
		t.Fatalf("int32 slabs read back as %v %v", a, b)
	}
	if got := r.Refs(); !reflect.DeepEqual(got, refs) {
		t.Fatalf("refs read back as %v", got)
	}
	back := r.Plan()
	backs := r.Plans()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cp) || len(backs) != 2 || !reflect.DeepEqual(backs[0], cp) || !reflect.DeepEqual(backs[1], cpSub) {
		t.Fatalf("plans changed over the round trip:\n%+v\nvs\n%+v", back, cp)
	}

	// The slot space only has slots for keys the plan references, so both
	// engines are restricted to those loads.
	var used []load
	x := NewExec(back.NumSlots, ring.Counting{})
	for _, l := range loads {
		if s, ok := sp.Lookup(l.node, l.key); ok {
			x.PutSlot(SlotRef{Node: l.node, Slot: s}, l.val)
			used = append(used, l)
		}
	}
	if err := x.Run(back); err != nil {
		t.Fatal(err)
	}
	m, err := runMap(t, p, used, ring.Counting{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Stats(), x.Stats()) {
		t.Errorf("stats differ after the round trip: %+v vs %+v", m.Stats(), x.Stats())
	}
}

// TestWireHeader checks every header field is enforced, in the documented
// order: magic and version before length and checksum.
func TestWireHeader(t *testing.T) {
	w := NewWireWriter(testMagic, testVersion)
	w.String("body")
	env := seal(t, w)
	read := func(env []byte) error {
		_, err := ReadWire(bytes.NewReader(env), testMagic, testVersion)
		return err
	}
	if err := read(env); err != nil {
		t.Fatalf("intact envelope: %v", err)
	}
	for _, tc := range []struct {
		name  string
		patch func(env []byte) []byte
		want  string
	}{
		{"empty", func(env []byte) []byte { return nil }, "header"},
		{"short header", func(env []byte) []byte { return env[:wireHeaderLen-1] }, "header"},
		{"magic", func(env []byte) []byte { env[0] ^= 1; return env }, "magic"},
		{"short body", func(env []byte) []byte { return env[:len(env)-1] }, "stream ends"},
		{"trailing byte", func(env []byte) []byte { return append(env, 0) }, "bytes after"},
		{"length", func(env []byte) []byte { env[wireMagicLen+4]++; return env }, "stream ends"},
		{"length over the cap", func(env []byte) []byte {
			le.PutUint32(env[wireMagicLen+4:], MaxWireBytes)
			return env
		}, "limit"},
		{"checksum", func(env []byte) []byte { env[wireMagicLen+8] ^= 1; return env }, "checksum"},
		{"body bit", func(env []byte) []byte { env[len(env)-1] ^= 0x10; return env }, "checksum"},
	} {
		err := read(tc.patch(append([]byte(nil), env...)))
		if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrWireVersion) {
			t.Errorf("%s: err=%v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// A version mismatch is typed, and wins over damage further in.
	other := append([]byte(nil), env...)
	le.PutUint32(other[wireMagicLen:], testVersion+1)
	other[len(other)-1] ^= 0x10
	if err := read(other); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("other version: err=%v, want ErrWireVersion", err)
	}
	// A declared length far past what the stream carries costs a bounded
	// buffer, not the declared length.
	huge := append([]byte(nil), env...)
	le.PutUint32(huge[wireMagicLen+4:], MaxWireBytes-wireHeaderLen)
	if allocs := testing.AllocsPerRun(10, func() { _ = read(huge) }); allocs > 16 {
		t.Fatalf("over-long declared length cost %v allocations", allocs)
	}
}

// TestWireReaderBounds checks the body reader: a count that exceeds the
// bytes that remain fails before anything is allocated for it, a failure
// sticks, and unread bytes fail Close.
func TestWireReaderBounds(t *testing.T) {
	open := func(fill func(w *WireWriter)) *WireReader {
		t.Helper()
		w := NewWireWriter(testMagic, testVersion)
		fill(w)
		r, err := ReadWire(bytes.NewReader(seal(t, w)), testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, read := range map[string]func(r *WireReader) int{
		"String": func(r *WireReader) int { return len(r.String()) },
		"Int32s": func(r *WireReader) int { return len(r.Int32s()) },
		"Ops":    func(r *WireReader) int { return len(r.Ops()) },
		"Refs":   func(r *WireReader) int { return len(r.Refs()) },
		"Plans":  func(r *WireReader) int { return len(r.Plans()) },
	} {
		r := open(func(w *WireWriter) { w.Count(1 << 30); w.Int(0) })
		var n int
		if allocs := testing.AllocsPerRun(1, func() { n = read(r) }); n != 0 || allocs > 4 {
			t.Errorf("%s with a hostile count returned %d elements in %v allocations", name, n, allocs)
		}
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "declares") {
			t.Errorf("%s with a hostile count: err=%v", name, r.Err())
		}
		if r.Int() != 0 || r.Close() == nil {
			t.Errorf("%s: reader kept going after a failure", name)
		}
	}

	r := open(func(w *WireWriter) { w.Int32(1) })
	if r.Int() != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
		t.Errorf("8-byte read of a 4-byte body: err=%v", r.Err())
	}
	r = open(func(w *WireWriter) { w.Int32(1); w.Int32(2) })
	if r.Int32() != 1 || r.Close() == nil {
		t.Errorf("Close with 4 bytes unread did not fail")
	}
	r = open(func(w *WireWriter) { w.Int32(2) }) // first byte 2: not a flag
	if r.Bool(); r.Err() == nil {
		t.Errorf("flag byte 2 read as a bool")
	}

	// A plan that decodes but breaks a model constraint is a reader failure.
	_, _, _, bad := wirePlan(t, 5, false)
	bad.To[0] = int32(bad.N)
	r = open(func(w *WireWriter) { w.Plan(bad) })
	if r.Plan(); r.Err() == nil || !strings.Contains(r.Err().Error(), "out of range") {
		t.Errorf("invalid plan read without a failure: %v", r.Err())
	}
}
