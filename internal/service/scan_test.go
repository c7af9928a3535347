package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// plainMultiply mirrors wireMultiplyRequest without its UnmarshalJSON: what
// encoding/json alone makes of a body, the oracle the scanner is compared
// against.
type plainMultiply struct {
	N         int         `json:"n"`
	Ring      string      `json:"ring,omitempty"`
	Algorithm string      `json:"algorithm,omitempty"`
	D         int         `json:"d,omitempty"`
	A         []wireEntry `json:"a"`
	B         []wireEntry `json:"b"`
	Xhat      []wirePos   `json:"xhat"`
	Trace     bool        `json:"trace,omitempty"`
}

// oracleDecode is the handler's decode at the parent commit: a json.Decoder
// with DisallowUnknownFields reading one value and ignoring what follows it.
// It also returns where that value ended.
func oracleDecode(body []byte) (wireMultiplyRequest, int, error) {
	var m plainMultiply
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&m)
	return wireMultiplyRequest(m), int(dec.InputOffset()), err
}

// oracleParse is the parent's build: Sparse.Set per entry in arrival order
// and the any-order support constructor.
func oracleParse(t testing.TB, wm *wireMultiplyRequest) *MultiplyRequest {
	t.Helper()
	r, err := resolveRing(wm.Ring)
	if err != nil {
		t.Fatal(err)
	}
	set := func(entries []wireEntry) *matrix.Sparse {
		m := matrix.NewSparse(wm.N, r)
		for _, e := range entries {
			m.Set(int(e[0]), int(e[1]), e[2])
		}
		return m
	}
	return &MultiplyRequest{
		A: set(wm.A), B: set(wm.B), Xhat: matrix.NewSupport(wm.N, wm.Xhat),
		Options: core.Options{Ring: r, D: wm.D, Algorithm: wm.Algorithm},
	}
}

// sameWire is deep equality with floats compared by bits (-0 is not 0) and a
// nil slice distinct from an empty one, as reflect.DeepEqual has it.
func sameWire(a, b *wireMultiplyRequest) bool {
	sameEntries := func(x, y []wireEntry) bool {
		return (x == nil) == (y == nil) && slices.EqualFunc(x, y, func(p, q wireEntry) bool {
			for k := range p {
				if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
					return false
				}
			}
			return true
		})
	}
	return a.N == b.N && a.Ring == b.Ring && a.Algorithm == b.Algorithm && a.D == b.D && a.Trace == b.Trace &&
		sameEntries(a.A, b.A) && sameEntries(a.B, b.B) &&
		(a.Xhat == nil) == (b.Xhat == nil) && slices.Equal(a.Xhat, b.Xhat)
}

func sameCells(a, b *matrix.Sparse) bool {
	return a.N == b.N && slices.EqualFunc(a.Rows, b.Rows, func(x, y []matrix.Cell) bool {
		return slices.EqualFunc(x, y, func(p, q matrix.Cell) bool {
			return p.Col == q.Col && math.Float64bits(p.Val) == math.Float64bits(q.Val)
		})
	})
}

func sameSupport(a, b *matrix.Support) bool {
	return a.N == b.N && a.NNZ == b.NNZ &&
		slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]int32]) &&
		slices.EqualFunc(a.Cols, b.Cols, slices.Equal[[]int32])
}

const seamCanonical = `{"n":4,"ring":"counting","a":[[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`

// seamCases is the table of the seam between the ordered fast path and the
// Set/NewSupport fallback, and between the scanner and encoding/json. reject
// is a fragment of the scanner's error, or of the build's; same names the
// body whose request an accepted row must equal.
var seamCases = []struct {
	name, body, same, reject string
}{
	{name: "canonical order", body: seamCanonical, same: seamCanonical},
	{name: "shuffled entries", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[3,3,5],[1,2,4],[0,1,2],[1,0,3]],"b":[[2,1,3],[0,0,1],[1,2,2]],"xhat":[[3,1],[0,2],[1,1],[0,0]]}`},
	{name: "order breaks in the last entry", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0,1,2],[1,2,4],[3,3,5],[1,0,3]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[3,1],[1,1]]}`},
	{name: "n after the arrays", same: seamCanonical,
		body: `{"a":[[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]],"ring":"counting","n":4}`},
	{name: "white space everywhere", same: seamCanonical,
		body: " {\n\t\"n\" : 4 , \"ring\" : \"counting\" ,\r\n \"a\" : [ [ 0 , 1 , 2 ] , [1,0,3],[1,2,4],[3,3,5] ] , \"b\":[[0,0,1],[1,2,2],[2,1,3]],\"xhat\":[ [ 0 , 0 ] ,[0,2],[1,1],[3,1] ] } \n"},
	{name: "duplicate position, last wins", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0,1,9],[0,1,2],[1,0,3],[1,2,4],[3,3,5],[1,0,3]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,0],[0,2],[1,1],[3,1],[0,2]]}`},
	{name: "explicit zeros are dropped", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0,0,0],[0,1,2],[0,2,-0],[1,0,3],[1,2,4],[2,2,0.0],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3],[3,0,0e5]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "a zero after a value removes it", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0,1,2],[1,0,3],[1,1,7],[1,1,0],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3],[2,2,6],[2,2,-0]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "a value after a zero stays", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0,1,0],[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "triple indices written 3.0 and 3e0", same: seamCanonical,
		body: `{"n":4,"ring":"counting","a":[[0.0,1,2],[1,0e0,3],[1e0,2.0,4],[3.0,3e0,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "a repeated key overwrites", same: seamCanonical,
		body: `{"n":9,"a":[[2,2,2]],"n":4,"ring":"counting","a":[[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "escaped key and value", same: seamCanonical,
		body: `{"\u006e":4,"r\u0069ng":"c\u006funting","a":[[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`},
	{name: "null where an array belongs is no array",
		body: `{"n":4,"a":null,"b":null,"xhat":null}`, same: `{"n":4,"a":[],"b":[],"xhat":[]}`},
	{name: "tuples at and past the compact fast path's bounds",
		body: `{"n":4,"ring":"counting","a":[[0,1,999999999999999],[0,2,1000000000000000],[1,0,9007199254740993],[2,2,1.5],[3,3,2e3],[3,2,-7],[3,1,0]],"b":[[0,0,0],[1,2,10]],"xhat":[[0,0],[1,2],[3,0]]}`,
		same: `{"n":4,"ring":"counting","a":[ [0,1,999999999999999],[ 0,2,1000000000000000],[ 1,0,9007199254740993],[ 2,2,1.5],[ 3,3,2e3],[ 3,2,-7],[ 3,1,0]],"b":[ [0,0,0],[ 1,2,10]],"xhat":[ [0,0],[ 1,2],[ 3,0]]}`},
	{name: "real values", body: `{"n":2,"a":[[0,0,0.1],[1,1,-2.5e-3]],"b":[[0,1,1E2]],"xhat":[[0,1]]}`,
		same: `{"n":2,"a":[[0,0,0.1],[1,1,-0.0025]],"b":[[0,1,100]],"xhat":[[0,1]]}`},

	{name: "xhat index written 3.0", body: `{"n":4,"a":[],"b":[],"xhat":[[3.0,1]]}`, reject: "number where an integer belongs"},
	{name: "xhat index written 3e0", body: `{"n":4,"a":[],"b":[],"xhat":[[3,1e0]]}`, reject: "number where an integer belongs"},
	{name: "n written 4.0", body: `{"n":4.0,"a":[],"b":[],"xhat":[]}`, reject: "number where an integer belongs"},
	{name: "fractional triple index", body: `{"n":4,"a":[[0.5,1,1]],"b":[],"xhat":[]}`, reject: "a: entry (0.5,1) is not a valid index pair for n=4"},
	{name: "triple index out of range", body: `{"a":[[4,0,1]],"b":[],"xhat":[],"n":4}`, reject: "a: entry (4,0) is not a valid index pair for n=4"},
	{name: "triple index out of range after the order broke", body: `{"n":4,"a":[[1,0,1],[0,0,1],[0,-1,1]],"b":[],"xhat":[]}`, reject: "a: entry (0,-1) is not a valid index pair for n=4"},
	{name: "xhat position out of range", body: `{"n":4,"a":[],"b":[],"xhat":[[1,1],[0,4]]}`, reject: "xhat: position (0,4) out of range for n=4"},
	{name: "value out of range", body: `{"n":4,"a":[[0,0,1e999]],"b":[],"xhat":[]}`, reject: "number 1e999 out of range"},
	{name: "n out of range", body: `{"n":99999999999999999999,"a":[],"b":[],"xhat":[]}`, reject: "integer 99999999999999999999 out of range"},
	{name: "bare minus", body: `{"n":4,"a":[[0,0,-]],"b":[],"xhat":[]}`, reject: "want a number"},
	{name: "leading zero", body: `{"n":4,"a":[[0,01,1]],"b":[],"xhat":[]}`, reject: "unexpected '1'"},
	{name: "leading zero in a compact position", body: `{"n":4,"a":[],"b":[],"xhat":[[0,01]]}`, reject: "leading zero"},
	{name: "nine-digit position", body: `{"n":4,"a":[],"b":[],"xhat":[[999999999,0]]}`, reject: "xhat: position (999999999,0) out of range for n=4"},
	{name: "ten-digit position", body: `{"n":4,"a":[],"b":[],"xhat":[[0,1000000000]]}`, reject: "xhat: position (0,1000000000) out of range for n=4"},
	{name: "negative compact position", body: `{"n":4,"a":[],"b":[],"xhat":[[0,-1]]}`, reject: "xhat: position (0,-1) out of range for n=4"},
	{name: "leading zero in an integer", body: `{"n":04,"a":[],"b":[],"xhat":[]}`, reject: "leading zero"},
	{name: "no digit after the point", body: `{"n":4,"a":[[0,0,1.]],"b":[],"xhat":[]}`, reject: "a digit after the decimal point"},
	{name: "no digit in the exponent", body: `{"n":4,"a":[[0,0,1e+]],"b":[],"xhat":[]}`, reject: "a digit in the exponent"},
	{name: "trailing bytes", body: seamCanonical + `}garbage`, reject: "after the top-level value"},
	{name: "a second value", body: seamCanonical + seamCanonical, reject: "after the top-level value"},
	{name: "unknown key", body: `{"n":4,"bogus":true}`, reject: `unknown field "bogus"`},
	{name: "key in upper case", body: `{"N":4,"a":[],"b":[],"xhat":[]}`, reject: `unknown field "N"`},
	{name: "null where a number belongs", body: `{"n":null,"a":[],"b":[],"xhat":[]}`, reject: "null where an integer belongs"},
	{name: "null where an entry belongs", body: `{"n":4,"a":[null],"b":[],"xhat":[]}`, reject: "null where '[' belongs"},
	{name: "null for the body", body: `null`, reject: "null where '{' belongs"},
	{name: "entry of two", body: `{"n":4,"a":[[0,1]],"b":[],"xhat":[]}`, reject: "an entry is [i, j, value]"},
	{name: "entry of four", body: `{"n":4,"a":[[0,1,2,3]],"b":[],"xhat":[]}`, reject: "an entry is [i, j, value]"},
	{name: "position of three", body: `{"n":4,"a":[],"b":[],"xhat":[[0,1,2]]}`, reject: "a position is [i, j]"},
	{name: "trailing comma", body: `{"n":4,"a":[[0,1,2],],"b":[],"xhat":[]}`, reject: "want '['"},
	{name: "control character in a string", body: "{\"ring\":\"a\nb\"}", reject: "control character"},
	{name: "array for the body", body: `[1,2,3]`, reject: "want '{'"},
	{name: "empty body", body: ``, reject: "unexpected end of input"},
}

// decodeEntryPoints are the two ways request bytes reach the wire struct:
// through encoding/json into the struct's UnmarshalJSON, and the scanner
// called directly as the handlers call it.
var decodeEntryPoints = []struct {
	name   string
	decode func([]byte, *wireMultiplyRequest) error
}{
	{"json.Unmarshal", func(b []byte, wm *wireMultiplyRequest) error { return json.Unmarshal(b, wm) }},
	{"scanner", DecodeWireMultiply},
}

func TestDecodeSeam(t *testing.T) {
	for _, tc := range seamCases {
		for _, ep := range decodeEntryPoints {
			t.Run(tc.name+"/"+ep.name, func(t *testing.T) {
				var wm wireMultiplyRequest
				err := ep.decode([]byte(tc.body), &wm)
				var req *MultiplyRequest
				if err == nil {
					req, err = ParseWireMultiply(&wm)
				}
				if tc.reject != "" {
					// encoding/json checks syntax before it calls UnmarshalJSON,
					// so a syntax error through it carries its own text.
					if syntax := (*json.SyntaxError)(nil); err == nil || !(strings.Contains(err.Error(), tc.reject) || errors.As(err, &syntax)) {
						t.Fatalf("err = %v, want one containing %q", err, tc.reject)
					}
					if fp, err := RequestFingerprint("/v1/multiply", []byte(tc.body)); !errors.Is(err, ErrBadRequest) || fp != "" {
						t.Fatalf("RequestFingerprint = %q, %v, want ErrBadRequest", fp, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				// The parent's decode and build of the same bytes, and of the
				// body this row must be equivalent to.
				plain, _, err := oracleDecode([]byte(tc.body))
				if err != nil {
					t.Fatalf("encoding/json rejects an accepted row: %v", err)
				}
				if !sameWire(&wm, &plain) {
					t.Fatalf("decoded %+v, encoding/json %+v", wm, plain)
				}
				same, _, err := oracleDecode([]byte(tc.same))
				if err != nil {
					t.Fatal(err)
				}
				for _, want := range []*MultiplyRequest{oracleParse(t, &plain), oracleParse(t, &same)} {
					if !matrix.Equal(req.A, want.A) || !sameCells(req.A, want.A) {
						t.Errorf("A = %v, want %v", req.A.Rows, want.A.Rows)
					}
					if !matrix.Equal(req.B, want.B) || !sameCells(req.B, want.B) {
						t.Errorf("B = %v, want %v", req.B.Rows, want.B.Rows)
					}
					if !sameSupport(req.Xhat, want.Xhat) {
						t.Errorf("Xhat = %+v, want %+v", req.Xhat, want.Xhat)
					}
					wantFP, err := core.Fingerprint(want.A.Support(), want.B.Support(), want.Xhat, want.Options)
					if err != nil {
						t.Fatal(err)
					}
					if fp, err := RequestFingerprint("/v1/multiply", []byte(tc.body)); err != nil || fp != wantFP {
						t.Errorf("RequestFingerprint = %q, %v, want %q", fp, err, wantFP)
					}
				}
			})
		}
	}
}

// TestDecodeTruncated cuts a small request at every byte: each prefix is
// rejected by both entry points, none panics and none is fingerprinted.
func TestDecodeTruncated(t *testing.T) {
	body := []byte(`{"n":4,"ring":"real","d":2,"trace":true,"a":[[0,1,-2.5e1],[1,0,3]],"b":[[1,2,0.5]],"xhat":[[0,2]]}`)
	var wm wireMultiplyRequest
	if err := DecodeWireMultiply(body, &wm); err != nil {
		t.Fatalf("control body: %v", err)
	}
	for cut := 0; cut < len(body); cut++ {
		for _, ep := range decodeEntryPoints {
			var wm wireMultiplyRequest
			if err := ep.decode(body[:cut], &wm); err == nil {
				t.Fatalf("%s accepted the body cut at byte %d: %s", ep.name, cut, body[:cut])
			}
		}
		if _, err := RequestFingerprint("/v1/multiply", body[:cut]); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("body cut at byte %d: RequestFingerprint err = %v, want ErrBadRequest", cut, err)
		}
	}
}

// TestDecodeOtherRequests runs the batch, prepare and classify grammars
// through the same strictness: their own keys in any order, nothing else.
func TestDecodeOtherRequests(t *testing.T) {
	var batch wireMultiplyBatchRequest
	err := json.Unmarshal([]byte(`{"xhat":[[0,0]],"lanes":[{"b":[[0,0,2]],"a":[[0,0,1]]},{"a":null,"b":[]}],"trace":true,"d":1,"n":2,"ring":"counting","algorithm":"auto"}`), &batch)
	if err != nil {
		t.Fatal(err)
	}
	if batch.N != 2 || batch.D != 1 || !batch.Trace || batch.Ring != "counting" || batch.Algorithm != "auto" ||
		len(batch.Lanes) != 2 || batch.Lanes[0].A[0] != (wireEntry{0, 0, 1}) || batch.Lanes[0].B[0] != (wireEntry{0, 0, 2}) ||
		batch.Lanes[1].A != nil || batch.Lanes[1].B == nil || batch.Xhat[0] != (wirePos{0, 0}) {
		t.Fatalf("batch decoded as %+v", batch)
	}
	var prep wirePrepareRequest
	if err := json.Unmarshal([]byte(`{"bhat":[[1,1]],"ahat":[[0,1]],"xhat":[],"n":2,"d":3,"ring":"gfp","algorithm":"lemma31"}`), &prep); err != nil {
		t.Fatal(err)
	}
	if prep.N != 2 || prep.D != 3 || prep.Ring != "gfp" || prep.Algorithm != "lemma31" ||
		prep.Ahat[0] != (wirePos{0, 1}) || prep.Bhat[0] != (wirePos{1, 1}) || prep.Xhat == nil || len(prep.Xhat) != 0 {
		t.Fatalf("prepare decoded as %+v", prep)
	}
	for _, tc := range []struct {
		into interface{ Scan(*Scanner) error }
		body string
		want string
	}{
		{new(wireMultiplyBatchRequest), `{"n":2,"lanes":[{"a":[],"c":[]}]}`, `unknown field "c"`},
		{new(wireMultiplyBatchRequest), `{"n":2,"lanes":[null]}`, "null where '{' belongs"},
		{new(wireMultiplyBatchRequest), `{"n":2,"a":[]}`, `unknown field "a"`},
		{new(wireMultiplyBatchRequest), `{"n":2,"lanes":[]} x`, "after the top-level value"},
		{new(wirePrepareRequest), `{"n":2,"trace":true}`, `unknown field "trace"`},
		{new(wirePrepareRequest), `{"n":2,"ahat":[[0,1,1]]}`, "a position is [i, j]"},
		{new(wireClassifyRequest), `{"n":2,"ring":"real"}`, `unknown field "ring"`},
		{new(wireClassifyRequest), `{"n":2,"Ahat":[]}`, `unknown field "Ahat"`},
		{new(wireClassifyRequest), `{"n":2}{}`, "after the top-level value"},
	} {
		if err := ScanDocument([]byte(tc.body), tc.into.Scan); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%T from %s: err = %v, want one containing %q", tc.into, tc.body, err, tc.want)
		}
		if err := json.Unmarshal([]byte(tc.body), tc.into); err == nil {
			t.Errorf("%T from %s: accepted through encoding/json", tc.into, tc.body)
		}
	}
}

// canonicalWire is the benchmark's edge request: n=256, d=4, US:US:US,
// counting ring, entries in row-major order.
func canonicalWire(tb testing.TB) *wireMultiplyRequest {
	tb.Helper()
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 256, 4, 1)
	r := ring.Counting{}
	return &wireMultiplyRequest{
		N: 256, Ring: "counting", Xhat: supportPositions(inst.Xhat),
		A: sparseEntries(matrix.Random(inst.Ahat, r, 1)), B: sparseEntries(matrix.Random(inst.Bhat, r, 2)),
	}
}

// canonicalBody is canonicalWire's bytes.
func canonicalBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := json.Marshal(canonicalWire(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// frontHalf is what a request pays before its plan lookup: decode, build,
// and the fingerprint Server.enter keys the cache by.
func frontHalf(body []byte) error {
	var wm wireMultiplyRequest
	if err := DecodeWireMultiply(body, &wm); err != nil {
		return err
	}
	req, err := ParseWireMultiply(&wm)
	if err != nil {
		return err
	}
	_, err = core.FingerprintValues(req.A, req.B, req.Xhat, req.Options)
	return err
}

// TestDecodeAllocs is the regression guard of the ordered path, as a count
// and not a timing: the canonical request's front half took about 7,800
// allocations when it went through encoding/json, Sparse.Set and three
// NewSupport calls, 30 when it still built the supports of A and B, and 19
// now.
func TestDecodeAllocs(t *testing.T) {
	body := canonicalBody(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := frontHalf(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("decode + build + fingerprint: %.0f allocations, want at most 40", allocs)
	}
}

func BenchmarkDecodeMultiply(b *testing.B) {
	body := canonicalBody(b)
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"scan", func() error { return DecodeWireMultiply(body, new(wireMultiplyRequest)) }},
		{"unmarshal", func() error { return json.Unmarshal(body, new(wireMultiplyRequest)) }},
		{"front-half", func() error { return frontHalf(body) }},
		{"fingerprint", func() error { _, err := RequestFingerprint("/v1/multiply", body); return err }},
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

// TestHTTPBodyCap pins the bound on what is read before it is parsed: a body
// declared or found longer than MaxBodyBytes is a 413, not a 400, on every
// endpoint that takes one, and bytes after the JSON value are a 400.
func TestHTTPBodyCap(t *testing.T) {
	h := NewHandler(NewServer(Config{}))
	for _, path := range []string{"/v1/multiply", "/v1/multiply/batch", "/v1/prepare", "/v1/classify"} {
		// The declared length alone refuses it: the body is never read.
		req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(neverRead{t}, MaxBodyBytes+1))
		req.ContentLength = MaxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s over the cap: status %d, want 413: %s", path, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"n":4} trailing`)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "after the top-level value") {
			t.Errorf("%s with trailing bytes: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	// A body that turns out too long while it is read (no declared length)
	// fails inside http.MaxBytesReader with the error this maps to 413.
	rec := httptest.NewRecorder()
	writeDecodeErr(rec, fmt.Errorf("reading request body: %w", &http.MaxBytesError{Limit: MaxBodyBytes}))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("MaxBytesError: status %d, want 413", rec.Code)
	}
}

type neverRead struct{ t *testing.T }

func (r neverRead) Read([]byte) (int, error) {
	r.t.Error("a body declared over the cap was read")
	return 0, io.EOF
}

// shuffledWire returns wm with the entries of A, B and Xhat in random order.
func shuffledWire(rng *rand.Rand, wm wireMultiplyRequest) wireMultiplyRequest {
	wm.A, wm.B, wm.Xhat = slices.Clone(wm.A), slices.Clone(wm.B), slices.Clone(wm.Xhat)
	rng.Shuffle(len(wm.A), func(i, j int) { wm.A[i], wm.A[j] = wm.A[j], wm.A[i] })
	rng.Shuffle(len(wm.B), func(i, j int) { wm.B[i], wm.B[j] = wm.B[j], wm.B[i] })
	rng.Shuffle(len(wm.Xhat), func(i, j int) { wm.Xhat[i], wm.Xhat[j] = wm.Xhat[j], wm.Xhat[i] })
	return wm
}

// foldedKey matches the scanner's unknown-field error.
var foldedKey = regexp.MustCompile(`unknown field "([^"]*)"`)

// deliberate names the documented reason the scanner refuses a body that
// encoding/json (value ended at off) accepts, or returns "".
func deliberate(body []byte, off int, scanErr error) string {
	if len(bytes.TrimLeft(body[off:], " \t\r\n")) > 0 {
		var wm wireMultiplyRequest
		if scanErr = DecodeWireMultiply(body[:off], &wm); scanErr == nil {
			return "bytes after the value"
		}
	}
	msg := scanErr.Error()
	switch m := foldedKey.FindStringSubmatch(msg); {
	case m != nil:
		for _, name := range []string{"n", "ring", "algorithm", "d", "a", "b", "xhat", "trace"} {
			if m[1] != name && strings.EqualFold(m[1], name) {
				return "key matching only case-insensitively"
			}
		}
	case strings.Contains(msg, "null where") && bytes.Contains(body, []byte("null")):
		return "null for a scalar or an element"
	case strings.Contains(msg, "an entry is [i, j, value]") || strings.Contains(msg, "a position is [i, j]"):
		return "entry or position of the wrong length"
	}
	return ""
}

// FuzzDecodeMultiply holds the scanner against encoding/json on arbitrary
// bytes: it never panics; what it accepts, encoding/json accepts to the same
// struct, and json.Marshal writes back as reflection over the method-free
// mirror does; what encoding/json accepts and it refuses falls under one of
// the documented differences.
func FuzzDecodeMultiply(f *testing.F) {
	for _, tc := range seamCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"ring":"😀 \ud800 \udc00\ud800x é` + "\xff" + `","n":-0,"d":1e-400,"a":[[1E+2,-0.0,1e-400]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got wireMultiplyRequest
		scanErr := DecodeWireMultiply(body, &got)
		want, off, oracleErr := oracleDecode(body)
		switch {
		case scanErr == nil && oracleErr != nil:
			t.Fatalf("scanner accepts what encoding/json rejects (%v): %q", oracleErr, body)
		case scanErr == nil:
			if !sameWire(&got, &want) {
				t.Fatalf("scanner %+v, encoding/json %+v: %q", got, want, body)
			}
			if rest := bytes.TrimLeft(body[off:], " \t\r\n"); len(rest) > 0 {
				t.Fatalf("scanner accepted bytes after the value: %q", body)
			}
			out, err := json.Marshal(&got)
			ref, refErr := json.Marshal(plainMultiply(got))
			if err != nil || refErr != nil || !bytes.Equal(out, ref) {
				t.Fatalf("json.Marshal = %s, %v; reflection %s, %v: from %q", out, err, ref, refErr, body)
			}
		case oracleErr == nil:
			if why := deliberate(body, off, scanErr); why == "" {
				t.Fatalf("scanner rejects (%v) what encoding/json accepts, for no documented reason: %q", scanErr, body)
			}
		}
	})
}
