package lbm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lbmm/internal/ring"
)

const (
	testMagic   = "lbmmtest"
	testVersion = 7
)

// wirePlan compiles a random plan into a slot space of its own.
func wirePlan(t *testing.T, seed int64, sub bool) (*Plan, []load, *SlotSpace, *CompiledPlan) {
	t.Helper()
	p, loads := randomPlan(rand.New(rand.NewSource(seed)), 6, 8, sub)
	sp := NewSlotSpace(6, 0)
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

// TestWireRoundTrip writes one value of every encoding and three compiled
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
		w.Plan(cp)
		w.Plan(cpSub)
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
	back := r.Plan(6)
	backs := []*CompiledPlan{r.Plan(6), r.Plan(6)}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cp) || len(backs) != 2 || !reflect.DeepEqual(backs[0], cp) || !reflect.DeepEqual(backs[1], cpSub) {
		t.Fatalf("plans changed over the round trip:\n%+v\nvs\n%+v", back, cp)
	}

	// The slot space only has slots for keys the plan references, so both
	// engines are restricted to those loads.
	var used []load
	x := NewExec(sp.Sizes(), ring.Counting{})
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
	if err := execStatsErr(m.Stats(), x.Stats(), back); err != nil {
		t.Errorf("after the round trip: %v", err)
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
		"String":   func(r *WireReader) int { return len(r.String()) },
		"Int32s":   func(r *WireReader) int { return len(r.Int32s()) },
		"Ops":      func(r *WireReader) int { return len(r.Ops()) },
		"Refs":     func(r *WireReader) int { return len(r.Refs()) },
		"RowLists": func(r *WireReader) int { _, col := r.RowLists(1, 1<<30); return len(col) },
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

	// A hostile count inside a row list fails before the slabs are
	// allocated, and so does a list of another row count.
	r := open(func(w *WireWriter) { w.Count(3); w.Int32s([]int32{1}); w.Count(1 << 30); w.Int(0) })
	var off, col []int32
	if allocs := testing.AllocsPerRun(1, func() { off, col = r.RowLists(1, 3) }); off != nil || col != nil || allocs > 4 ||
		r.Err() == nil || !strings.Contains(r.Err().Error(), "declares") {
		t.Errorf("RowLists with a hostile row count returned %d offsets in %v allocations, err=%v", len(off), allocs, r.Err())
	}
	r = open(func(w *WireWriter) { w.Count(2); w.Int32s([]int32{1}); w.Int32s(nil) })
	if off, col = r.RowLists(1, 3); off != nil || col != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "want 3") {
		t.Errorf("RowLists of 2 rows read as 3: %d offsets, err=%v", len(off), r.Err())
	}

	r = open(func(w *WireWriter) { w.Int32(1) })
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
	if r.Plan(bad.N); r.Err() == nil || !strings.Contains(r.Err().Error(), "out of range") {
		t.Errorf("invalid plan read without a failure: %v", r.Err())
	}
	// So is a plan for another machine size, before its slabs are read.
	_, _, _, good := wirePlan(t, 5, false)
	r = open(func(w *WireWriter) { w.Plan(good) })
	if r.Plan(good.N + 1); r.Err() == nil || !strings.Contains(r.Err().Error(), "7-node machine") {
		t.Errorf("plan for %d nodes read as one for %d: %v", good.N, good.N+1, r.Err())
	}
}

// TestWireRowLists: RowLists reads exactly what, per list, a row count and
// that many Int32s read — the same rows, as offsets counted from each
// list's first column, and on every truncation of the body the same failure
// or success — into one offsets slab and one column slab.
func TestWireRowLists(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k, n := 1+rng.Intn(3), rng.Intn(6)
		lists := make([][][]int32, k)
		for l := range lists {
			lists[l] = make([][]int32, n)
			for i := range lists[l] {
				if rng.Intn(3) > 0 {
					lists[l][i] = make([]int32, 1+rng.Intn(5))
					for j := range lists[l][i] {
						lists[l][i][j] = rng.Int31() - 1<<30
					}
				}
			}
		}
		w := NewWireWriter(testMagic, testVersion)
		for _, rows := range lists {
			w.Count(len(rows))
			for _, row := range rows {
				w.Int32s(row)
			}
		}
		w.Int32(-9)
		body := seal(t, w)[wireHeaderLen:]
		for cut := 0; cut <= len(body); cut++ {
			one := &WireReader{buf: body[:cut]}
			want := make([][][]int32, k)
			for l := range want {
				if rows := one.Count(4); rows != n && one.Err() == nil {
					one.Fail(fmt.Errorf("%d rows", rows))
				}
				want[l] = make([][]int32, n)
				for i := range want[l] {
					want[l][i] = one.Int32s()
				}
			}
			all := &WireReader{buf: body[:cut]}
			off, col := all.RowLists(k, n)
			if (one.Err() == nil) != (all.Err() == nil) || one.Err() == nil && len(one.buf) != len(all.buf) {
				t.Fatalf("trial %d, %d of %d bytes: row by row err=%v with %d left, RowLists err=%v with %d left",
					trial, cut, len(body), one.Err(), len(one.buf), all.Err(), len(all.buf))
			}
			if all.Err() != nil {
				if off != nil || col != nil {
					t.Fatalf("trial %d, %d of %d bytes: a failed RowLists returned slabs", trial, cut, len(body))
				}
				continue
			}
			if len(off) != k*(n+1) {
				t.Fatalf("trial %d: %d offsets for %d lists of %d rows", trial, len(off), k, n)
			}
			for l := range want {
				o := off[l*(n+1) : (l+1)*(n+1)]
				if o[0] != 0 {
					t.Fatalf("trial %d list %d: first offset %d", trial, l, o[0])
				}
				for i, row := range want[l] {
					if got := col[o[i]:o[i+1]]; !slices.Equal(got, row) || !slices.Equal(row, lists[l][i]) {
						t.Fatalf("trial %d list %d row %d: RowLists read %v, row by row %v, written %v", trial, l, i, got, row, lists[l][i])
					}
				}
				col = col[o[n]:]
			}
			if len(col) != 0 {
				t.Fatalf("trial %d: %d columns left over", trial, len(col))
			}
		}
	}
}

// TestWireBufferPool: ReadWire reads bodies into pooled buffers that Close
// hands back. A closed reader reads nothing more, a failed read returns its
// buffer too, and a buffer grown past maxPooledWire is dropped, not pooled.
func TestWireBufferPool(t *testing.T) {
	read := func(env []byte) *WireReader {
		t.Helper()
		r, err := ReadWire(bytes.NewReader(env), testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	w := NewWireWriter(testMagic, testVersion)
	w.Int32s([]int32{5, 6, 7})
	small := seal(t, w)

	r := read(small)
	held := r.body
	if got := r.Int32s(); !reflect.DeepEqual(got, []int32{5, 6, 7}) || r.Close() != nil {
		t.Fatalf("read %v, close err=%v", got, r.Err())
	}
	if r.body != nil || r.Int32() != 0 || r.Err() == nil {
		t.Fatal("a closed reader kept its buffer or went on reading")
	}
	if !raceDetector {
		// The race detector makes sync.Pool drop a share of what is put
		// back; without it, the next read on this goroutine reuses the
		// buffer.
		if r := read(small); r.body != held {
			t.Error("the next read did not reuse the returned buffer")
		} else {
			r.Close()
		}
		bad := append([]byte(nil), small...)
		bad[len(bad)-1] ^= 1
		if _, err := ReadWire(bytes.NewReader(bad), testMagic, testVersion); err == nil {
			t.Fatal("a damaged body read")
		}
		if r := read(small); r.body != held {
			t.Error("a failed read did not return its buffer")
		} else {
			r.Close()
		}
	}

	w = NewWireWriter(testMagic, testVersion)
	w.Int32s(make([]int32, maxPooledWire/4+1))
	r = read(seal(t, w))
	if r.body.Cap() <= maxPooledWire {
		t.Fatalf("a %d-byte body fit a %d-byte buffer", maxPooledWire+4, r.body.Cap())
	}
	r.Int32s()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for range 64 {
		if b := wireBufs.Get().(*bytes.Buffer); b.Cap() > maxPooledWire {
			t.Fatalf("the pool holds a %d-byte buffer", b.Cap())
		}
	}
}
