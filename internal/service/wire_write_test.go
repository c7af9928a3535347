package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// TestMarshalWireMultiplyMatchesEncodingJSON pins MarshalJSON, and with it
// every encoding/json caller holding a *WireMultiply, to what reflection
// writes for the method-free mirror: numbers across the 'f'/'e' cutoffs and
// the integer fast path, strings that need escaping, nil and empty slices,
// omitted and present optional fields, and the payload as a field of an
// enclosing value.
func TestMarshalWireMultiplyMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []wireEntry{
		{0, 1, 2}, {3, 4, -5}, {0, 0, 2.5}, {1, 1, negZero}, {2, 2, 1e-7}, {2, 3, 1e21},
		{3, 3, 5e-324}, {4, 4, math.MaxFloat64}, {0, 2, 1e15}, {0, 3, 1e15 - 1}, {0, 5, 1e-6},
		{1, 0, 9.999e20}, {1, 3, 0.1}, {1, 4, 1.0 / 3}, {2, 1, 4503599627370497}, {2, 5, -7.25e-310},
	}
	type envelope struct {
		ID      string               `json:"id"`
		Payload *wireMultiplyRequest `json:"payload"`
	}
	type plainEnvelope struct {
		ID      string         `json:"id"`
		Payload *plainMultiply `json:"payload"`
	}
	odd := `<a href="x">&amp;</a> \ ` + "\x00\x1f\t\n\r é😀 \u2028\u2029 \xff\xc3"
	for i, wm := range []wireMultiplyRequest{
		{},
		{N: 6, Ring: "counting", Algorithm: "auto", D: 3, A: values, B: values[:3],
			Xhat: []wirePos{{0, 1}, {5, 5}}, Trace: true},
		{N: 1, Ring: odd, Algorithm: odd, D: -2},
		{N: 1, A: []wireEntry{}, B: []wireEntry{}, Xhat: []wirePos{}},
	} {
		got, err := json.Marshal(&wm)
		want, werr := json.Marshal(plainMultiply(wm))
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("payload %d: json.Marshal = %s, %v\nreflection    %s, %v", i, got, err, want, werr)
		}
		plain := plainMultiply(wm)
		got, err = json.MarshalIndent(envelope{"x", &wm}, "", "  ")
		want, werr = json.MarshalIndent(plainEnvelope{"x", &plain}, "", "  ")
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("payload %d as a field: %s, %v\nreflection %s, %v", i, got, err, want, werr)
		}
	}
}

// TestMarshalWireMultiplyNonFinite: a value JSON cannot carry is refused as
// it was under reflection, reachable with errors.As through the
// *json.MarshalerError encoding/json wraps a method's error in.
func TestMarshalWireMultiplyNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, wm := range []*wireMultiplyRequest{
			{N: 2, A: []wireEntry{{0, 0, 1}, {0, 1, bad}}},
			{N: 2, A: []wireEntry{{0, 0, 1}}, B: []wireEntry{{bad, 0, 1}}},
		} {
			out, err := json.Marshal(wm)
			var me *json.MarshalerError
			var uv *json.UnsupportedValueError
			if out != nil || !errors.As(err, &me) || !errors.As(err, &uv) {
				t.Errorf("%v: json.Marshal = %q, %v; want a *json.UnsupportedValueError inside a *json.MarshalerError", bad, out, err)
			}
		}
	}
}

// TestMarshalWireMultiplyResultIsOwned: MarshalJSON writes into pooled
// scratch, and what it returns is a copy of exactly the body's length that
// later marshals — of larger payloads too — never write into.
func TestMarshalWireMultiplyResultIsOwned(t *testing.T) {
	large := &wireMultiplyRequest{N: 64, Ring: "counting"}
	for i := 0; i < 64; i++ {
		large.A = append(large.A, wireEntry{float64(i), float64(i), float64(i + 1)})
	}
	if _, err := large.MarshalJSON(); err != nil { // grows the pooled scratch
		t.Fatal(err)
	}
	kept, err := (&wireMultiplyRequest{N: 2, A: []wireEntry{{0, 0, 1}}}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := string(kept)
	if cap(kept) != len(kept) {
		t.Errorf("MarshalJSON returned %d bytes with capacity %d, want an exact-length copy", len(kept), cap(kept))
	}
	medium := &wireMultiplyRequest{N: 8, A: large.A[:8]}
	for i := 0; i < 4; i++ {
		if _, err := json.Marshal(medium); err != nil {
			t.Fatal(err)
		}
	}
	if string(kept) != want {
		t.Fatalf("a kept MarshalJSON result changed under a later marshal: %q, was %q", kept, want)
	}
}

// BenchmarkMarshalWireMultiply times the client's encode of the canonical
// edge request: json.Marshal through MarshalJSON, the reflection it
// replaces, and the bare writer into a reused buffer.
func BenchmarkMarshalWireMultiply(b *testing.B) {
	wm := canonicalWire(b)
	plain := plainMultiply(*wm)
	var buf []byte
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"marshal", func() error { _, err := json.Marshal(wm); return err }},
		{"reflect", func() error { _, err := json.Marshal(&plain); return err }},
		{"append", func() (err error) { buf, err = wm.AppendJSON(buf[:0]); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
