package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"lbmm/internal/obsv"
	"lbmm/internal/service"
)

// rawSession opens a session by hand, writes lines verbatim and returns every
// frame the server sent until it ended the session.
func rawSession(t *testing.T, url string, lines ...string) []Frame {
	t.Helper()
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, url+"/stream/v1", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer pw.Close()
	go func() {
		for _, line := range lines {
			io.WriteString(pw, line+"\n")
		}
	}()
	var frames []Frame
	dec := json.NewDecoder(resp.Body)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if err != io.EOF {
				t.Fatalf("reading session: %v", err)
			}
			return frames
		}
		frames = append(frames, f)
	}
}

// TestStreamStrictFrames pins what the line scanner refuses that the lenient
// frame decoder took: a key outside the schema — in the frame or inside its
// submit payload — and bytes after the frame on its line. Each is answered
// with a code-400 error frame and ends the session (the pipe stays open: the
// server hangs up, not the client) once the lane accepted before it has its
// result. Blank lines and a payload with keys in
// any order are fine.
func TestStreamStrictFrames(t *testing.T) {
	_, ts := newStreamServer(t, service.Config{}, Config{})
	hello := `{"type":"hello","proto":"` + Proto + `"}`
	submit := `{"xhat":[[0,0]],"b":[[0,0,3]],"a":[[0,0,2]],"ring":"counting","n":1}`
	for _, tc := range []struct {
		name, line, want string
	}{
		{"unknown key in submit", `{"type":"submit","id":"x","submit":{"n":1,"colour":"red"}}`, `unknown field "colour"`},
		{"upper-case key in submit", `{"type":"submit","id":"x","submit":{"N":1}}`, `unknown field "N"`},
		{"unknown key in the frame", `{"type":"submit","id":"x","ticket":7}`, `unknown field "ticket"`},
		{"bytes after the frame", `{"type":"submit","id":"x","submit":` + submit + `} {"type":"submit"}`, "after the top-level value"},
		{"not a frame", `submit please`, "want '{'"},
	} {
		frames := rawSession(t, ts.URL, hello, "", `{"id":"ok","submit":`+submit+`,"type":"submit"}`, tc.line)
		// The accepted lane's result and the error frame race; both arrive,
		// because ending intake still drains what was accepted.
		byType := map[string]Frame{}
		for _, f := range frames {
			byType[f.Type] = f
		}
		if len(frames) != 4 || len(byType) != 4 || !reflect.DeepEqual(byType[TypeResult].X, []service.WireEntry{{0, 0, 6}}) {
			t.Fatalf("%s: session %+v, want hello, ticket, result and error", tc.name, frames)
		}
		if bad := byType[TypeError]; bad.Code != http.StatusBadRequest || !strings.Contains(bad.Error, tc.want) {
			t.Errorf("%s: error frame %+v, want code 400 containing %q", tc.name, bad, tc.want)
		}
	}
}

// TestReadLine pins the line framing under a small cap: blank lines skipped,
// a line longer than the reader's buffer gathered whole, the last line
// needing no newline, and a line over the cap refused with errLineTooLong
// before it is buffered further.
func TestReadLine(t *testing.T) {
	long := strings.Repeat("x", 100)
	br := bufio.NewReaderSize(strings.NewReader("\n \r\nshort\n"+long+"\n\nlast"), 16)
	for _, want := range []string{"short\n", long + "\n", "last"} {
		line, err := readLine(br, 200)
		if err != nil || string(line) != want {
			t.Fatalf("readLine = %q, %v, want %q", line, err, want)
		}
	}
	if line, err := readLine(br, 200); err != io.EOF {
		t.Fatalf("readLine at the end = %q, %v, want io.EOF", line, err)
	}
	br = bufio.NewReaderSize(strings.NewReader(strings.Repeat("y", 1000)+"\nnext\n"), 16)
	if line, err := readLine(br, 200); !errors.Is(err, errLineTooLong) {
		t.Fatalf("readLine over the cap = %q, %v, want errLineTooLong", line, err)
	}
}

// plainFrame is the client→server part of Frame with a submit payload that
// has no UnmarshalJSON: what the lenient json.Decoder of the old read loop
// made of a line.
type plainFrame struct {
	Type     string `json:"type"`
	Proto    string `json:"proto"`
	ID       string `json:"id"`
	SameXhat bool   `json:"same_xhat"`
	Submit   *struct {
		N         int                 `json:"n"`
		Ring      string              `json:"ring"`
		Algorithm string              `json:"algorithm"`
		D         int                 `json:"d"`
		A         []service.WireEntry `json:"a"`
		B         []service.WireEntry `json:"b"`
		Xhat      []service.WirePos   `json:"xhat"`
		Trace     bool                `json:"trace"`
	} `json:"submit"`
}

// FuzzScanFrame feeds whole stream lines to the frame scanner: it never
// panics, and a line it accepts is one the lenient decoder accepted, to the
// same frame. (It refuses more than that decoder did — unknown keys, null
// scalars, tuples of the wrong length, bytes after the frame — which
// service.FuzzDecodeMultiply classifies for the payload.)
func FuzzScanFrame(f *testing.F) {
	f.Add([]byte(`{"type":"hello","proto":"lbmm.stream.v1"}`))
	f.Add([]byte(`{"type":"submit","id":"lane-0","submit":{"n":2,"ring":"counting","a":[[0,1,2]],"b":[[1,0,3]],"xhat":null},"same_xhat":true}`))
	f.Add([]byte(`{"type":"submit","id":"é😀","submit":{"n":2,"trace":true,"d":1,"algorithm":"auto","a":[],"b":[],"xhat":[[0,0]]}}` + "\n"))
	f.Add([]byte(`{"type":"submit","submit":{"n":1,"colour":"red"}}`))
	f.Add([]byte(`{"type":"submit","ticket":7}`))
	f.Add([]byte(`{"type":"submit"} {}`))
	f.Add([]byte(`{"type":"submit","submit":null}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := scanFrame(line)
		if err != nil {
			return
		}
		var want plainFrame
		dec := json.NewDecoder(bytes.NewReader(line))
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("scanFrame accepts what encoding/json rejects (%v): %q", err, line)
		}
		if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("scanFrame accepted bytes after the frame: %q", line)
		}
		if got.Type != want.Type || got.Proto != want.Proto || got.ID != want.ID || got.SameXhat != want.SameXhat ||
			(got.Submit == nil) != (want.Submit == nil) {
			t.Fatalf("scanFrame %+v, encoding/json %+v: %q", got, want, line)
		}
		if got.Submit != nil && !reflect.DeepEqual(*got.Submit, service.WireMultiply(*want.Submit)) {
			t.Fatalf("scanFrame submit %+v, encoding/json %+v: %q", *got.Submit, *want.Submit, line)
		}
	})
}

// shadowMultiply, shadowReport and shadowFrame carry the fields and tags of
// service.WireMultiply, service.WireReport and Frame and no methods, so
// encoding/json reflects over exactly the shape the wire promises.
type shadowMultiply struct {
	N         int                 `json:"n"`
	Ring      string              `json:"ring,omitempty"`
	Algorithm string              `json:"algorithm,omitempty"`
	D         int                 `json:"d,omitempty"`
	A         []service.WireEntry `json:"a"`
	B         []service.WireEntry `json:"b"`
	Xhat      []service.WirePos   `json:"xhat"`
	Trace     bool                `json:"trace,omitempty"`
}

type shadowReport struct {
	Rounds       int          `json:"rounds"`
	Phase1Rounds int          `json:"phase1_rounds"`
	Phase2Rounds int          `json:"phase2_rounds"`
	Messages     int64        `json:"messages"`
	PeakStore    int          `json:"peak_store"`
	Algorithm    string       `json:"algorithm"`
	Classes      [3]string    `json:"classes"`
	Band         string       `json:"band"`
	D            int          `json:"d"`
	Fingerprint  string       `json:"fingerprint"`
	Cache        string       `json:"cache"`
	Profile      *obsv.Export `json:"profile,omitempty"`
}

type shadowFrame struct {
	Type        string              `json:"type"`
	Proto       string              `json:"proto,omitempty"`
	MaxInflight int                 `json:"max_inflight,omitempty"`
	ID          string              `json:"id,omitempty"`
	Ticket      uint64              `json:"ticket,omitempty"`
	Submit      *shadowMultiply     `json:"submit,omitempty"`
	SameXhat    bool                `json:"same_xhat,omitempty"`
	X           []service.WireEntry `json:"x,omitempty"`
	Report      *shadowReport       `json:"report,omitempty"`
	Code        int                 `json:"code,omitempty"`
	Error       string              `json:"error,omitempty"`
}

// encodeReference is what json.Encoder writes for f.
func encodeReference(f *Frame) ([]byte, error) {
	sf := shadowFrame{Type: f.Type, Proto: f.Proto, MaxInflight: f.MaxInflight, ID: f.ID, Ticket: f.Ticket,
		SameXhat: f.SameXhat, X: f.X, Code: f.Code, Error: f.Error}
	if f.Submit != nil {
		m := shadowMultiply(*f.Submit)
		sf.Submit = &m
	}
	if f.Report != nil {
		r := shadowReport(*f.Report)
		sf.Report = &r
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(sf)
	return buf.Bytes(), err
}

// TestAppendFrameMatchesEncodingJSON pins appendFrame to json.Encoder byte
// for byte over every frame type: numbers across the 'f'/'e' cutoffs and the
// integer fast path, strings that need escaping, nil and empty slices, a
// report with and without a profile. A non-finite value is refused with
// *json.UnsupportedValueError and leaves the output as it was.
func TestAppendFrameMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []service.WireEntry{
		{0, 1, 2}, {3, 4, -5}, {0, 0, 2.5}, {1, 1, negZero}, {2, 2, 1e-7}, {2, 3, 1e21},
		{3, 3, 5e-324}, {4, 4, math.MaxFloat64}, {5, 5, -math.MaxFloat64}, {0, 2, 1e15}, {0, 3, 1e15 - 1},
		{0, 4, -1e15 + 1}, {0, 5, 1e-6}, {1, 0, 9.999e20}, {1, 2, 1e20}, {1, 3, 0.1}, {1, 4, 1.0 / 3},
		{1, 5, 123456.789}, {2, 0, -2e-9}, {2, 1, 4503599627370497}, {2, 4, 1.5e300}, {2, 5, -7.25e-310},
	}
	odd := `<a href="x">&amp;</a> \ ` + "\x00\x1f\t\n\r\b\f é😀 \u2028\u2029 \xff\xfe\xc3"
	profile := &obsv.Export{
		Schema: obsv.SchemaVersion, Meta: map[string]string{"workload": "<blocks>", "z": "&"},
		Rounds: 3, Messages: 12, PerRound: []int{4, 4, 4}, SendLoad: []int64{1, 2}, RecvLoad: nil,
		Phases: []*obsv.ExportSpan{{Label: "phase<1>", End: 3, Rounds: 3, Messages: 12,
			Counters: map[string]float64{"share": 1e-7, "n": 2}}},
	}
	report := service.WireReport{
		Rounds: 3, Phase1Rounds: 1, Phase2Rounds: 2, Messages: 1 << 40, PeakStore: 7, Algorithm: "trivial",
		Classes: [3]string{"US", "RS", odd}, Band: "d≤n^0.5", D: 4, Fingerprint: "ab12", Cache: "hit",
	}
	traced := report
	traced.Profile = profile
	frames := []Frame{
		{},
		{Type: TypeHello, Proto: Proto},
		{Type: TypeHello, Proto: Proto, MaxInflight: 512},
		{Type: TypeSubmit, ID: "lane-0", Submit: &service.WireMultiply{
			N: 6, Ring: "counting", Algorithm: "auto", D: 3, A: values, B: values[:3],
			Xhat: []service.WirePos{{0, 1}, {5, 5}}, Trace: true}},
		{Type: TypeSubmit, ID: odd, SameXhat: true, Submit: &service.WireMultiply{N: 1}},
		{Type: TypeSubmit, ID: "empty", Submit: &service.WireMultiply{
			N: 1, A: []service.WireEntry{}, B: []service.WireEntry{}, Xhat: []service.WirePos{}}},
		{Type: TypeTicket, ID: "lane-0", Ticket: math.MaxUint64},
		{Type: TypeResult, ID: "lane-0", Ticket: 1, X: values, Report: &report},
		{Type: TypeResult, ID: "traced", Ticket: 2, X: []service.WireEntry{}, Report: &traced},
		{Type: TypeError, ID: "lane-1", Ticket: 3, Code: http.StatusTooManyRequests, Error: odd},
		{Type: TypeError, Code: -1, Error: "plain"},
	}
	for i := range frames {
		want, err := encodeReference(&frames[i])
		if err != nil {
			t.Fatalf("frame %d: encoding/json: %v", i, err)
		}
		got, err := appendFrame([]byte("prefix"), &frames[i])
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("frame %d: appendFrame = %q, %v\nencoding/json  %q", i, got, err, want)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		badProfile := *profile
		badProfile.Phases = []*obsv.ExportSpan{{Label: "x", Counters: map[string]float64{"c": bad}}}
		badReport := report
		badReport.Profile = &badProfile
		for _, f := range []Frame{
			{Type: TypeSubmit, ID: "a", Submit: &service.WireMultiply{N: 2, A: []service.WireEntry{{0, 0, 1}, {0, 1, bad}}}},
			{Type: TypeSubmit, ID: "b", Submit: &service.WireMultiply{N: 2, A: values[:1], B: []service.WireEntry{{bad, 0, 1}}}},
			{Type: TypeResult, ID: "x", X: []service.WireEntry{{0, 0, 1}, {1, 1, bad}}, Report: &report},
			{Type: TypeResult, ID: "p", X: values[:1], Report: &badReport},
		} {
			if _, err := encodeReference(&f); err == nil {
				t.Fatalf("%s %q: encoding/json accepted %v", f.Type, f.ID, bad)
			}
			got, err := appendFrame([]byte("prefix"), &f)
			if uv := (*json.UnsupportedValueError)(nil); !errors.As(err, &uv) {
				t.Errorf("%s %q with %v: error %v, want *json.UnsupportedValueError", f.Type, f.ID, bad, err)
			}
			if string(got) != "prefix" {
				t.Errorf("%s %q with %v: output %q, want it left as it was", f.Type, f.ID, bad, got)
			}
		}
	}
}

// sameBits reports whether two entry lists are equal cell for cell down to
// the float bits (so -0 differs from 0) and agree on nil.
func sameBits(a, b []service.WireEntry) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		for c := range a[k] {
			if math.Float64bits(a[k][c]) != math.Float64bits(b[k][c]) {
				return false
			}
		}
	}
	return true
}

// FuzzAppendFrame round-trips every client line the frame scanner accepts
// through appendFrame: the bytes are encoding/json's, and scanning them gives
// the same frame back, float bits and -0 included.
func FuzzAppendFrame(f *testing.F) {
	f.Add([]byte(`{"type":"hello","proto":"lbmm.stream.v1"}`))
	f.Add([]byte(`{"type":"submit","id":"lane-0","submit":{"n":2,"ring":"counting","a":[[0,1,2]],"b":[[1,0,3]],"xhat":null},"same_xhat":true}`))
	f.Add([]byte(`{"type":"submit","id":"<é😀\u2028\ud800&>","submit":{"n":2,"trace":true,"d":1,"algorithm":"auto","a":[],"b":[],"xhat":[[0,0]]}}`))
	f.Add([]byte(`{"type":"submit","submit":{"n":3,"a":[[0,0,-0],[0,1,1e-7],[1,1,1E21],[2,2,5e-324],[1,2,1.7976931348623157e308]],"b":[[0.0,1,-2.50]]}}`))
	f.Add([]byte(`{"id":"\"\\\/\b\f\n\r\t\u0000","type":"x"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := scanFrame(line)
		if err != nil {
			return
		}
		out, err := appendFrame(nil, &got)
		if err != nil {
			t.Fatalf("appendFrame refused a scanned frame (%v): %q", err, line)
		}
		want, err := encodeReference(&got)
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("appendFrame %q, encoding/json %q (%v): from %q", out, want, err, line)
		}
		back, err := scanFrame(out)
		if err != nil {
			t.Fatalf("scanFrame refused appendFrame's own line %q: %v", out, err)
		}
		if back.Type != got.Type || back.Proto != got.Proto || back.ID != got.ID || back.SameXhat != got.SameXhat ||
			(back.Submit == nil) != (got.Submit == nil) {
			t.Fatalf("round trip %+v, scanned %+v: %q", back, got, line)
		}
		if got.Submit == nil {
			return
		}
		g, b := *got.Submit, *back.Submit
		if !sameBits(g.A, b.A) || !sameBits(g.B, b.B) {
			t.Fatalf("round trip changed the values: %v %v, scanned %v %v: %q", b.A, b.B, g.A, g.B, line)
		}
		g.A, g.B, b.A, b.B = nil, nil, nil, nil
		if !reflect.DeepEqual(g, b) {
			t.Fatalf("round trip submit %+v, scanned %+v: %q", b, g, line)
		}
	})
}
