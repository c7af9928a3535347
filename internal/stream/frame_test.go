package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
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

// plainFrame is Frame with a submit payload that has no UnmarshalJSON: what
// the lenient json.Decoder of the old read loops — the session's and the
// client's — made of a line.
type plainFrame struct {
	Type        string              `json:"type"`
	Proto       string              `json:"proto"`
	MaxInflight int                 `json:"max_inflight"`
	ID          string              `json:"id"`
	Ticket      uint64              `json:"ticket"`
	SameXhat    bool                `json:"same_xhat"`
	X           []service.WireEntry `json:"x"`
	Report      *shadowReport       `json:"report"`
	Code        int                 `json:"code"`
	Error       string              `json:"error"`
	Submit      *struct {
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

// serverLines are server frames of every type, as the server writes them or
// with what encoding/json would also take: a traced report with a profile,
// a ticket above 2³¹, keys in another order, white space.
var serverLines = []string{
	`{"type":"hello","proto":"lbmm.stream.v1","max_inflight":512}`,
	`{"type":"ticket","id":"lane-0","ticket":7}` + "\n",
	`{"type":"ticket","id":"big","ticket":4294967296}`,
	`{"type":"result","id":"lane-0","ticket":1,"x":[[0,1,2],[3,4,-0.5e-7]],"report":{"rounds":3,` +
		`"phase1_rounds":1,"phase2_rounds":2,"messages":12,"peak_store":7,"algorithm":"trivial",` +
		`"classes":["US","US","AS"],"band":"d≤n","d":4,"fingerprint":"ab12","cache":"hit"}}`,
	`{"report":{"cache":"miss","classes":["US","RS","CS"],"profile":{"schema":"lbmm.trace.v1",` +
		`"meta":{"w":"<b>"},"rounds":3,"messages":12,"per_round":[4,4,4],"phases":[{"label":"p",` +
		`"end":3,"rounds":3,"counters":{"share":1e-7}}]}}, "x" : [ [0, 0, 1.5] ], "type":"result","ticket":2}`,
	`{"type":"error","id":"lane-1","ticket":3,"code":429,"error":"stream: session inflight cap 4 reached"}`,
}

// badServerLines are lines the reader refuses: an unknown key, two frames on
// one line, a client frame, a negative ticket.
var badServerLines = []string{
	`{"type":"ticket","id":"x","ticket":1,"colour":"red"}`,
	`{"type":"ticket","id":"a","ticket":1}{"type":"ticket","id":"b","ticket":2}`,
	`{"type":"submit","id":"x","same_xhat":true}`,
	`{"type":"ticket","id":"x","ticket":-1}`,
}

// TestReadFrame pins the client's reader on the fuzz seeds: it takes every
// server frame, the traced profile included, and refuses the rest.
func TestReadFrame(t *testing.T) {
	for _, line := range serverLines {
		f, err := readFrame(bufio.NewReader(strings.NewReader(line)))
		if err != nil || f.Type == "" {
			t.Errorf("%q: %+v, %v", line, f, err)
		}
	}
	f, _ := readFrame(bufio.NewReader(strings.NewReader(serverLines[4])))
	if f.Report == nil || f.Report.Classes[1] != "RS" || f.Report.Profile == nil ||
		f.Report.Profile.Phases[0].Counters["share"] != 1e-7 {
		t.Errorf("the traced report was not read whole: %+v", f.Report)
	}
	for _, line := range badServerLines {
		if f, err := readFrame(bufio.NewReader(strings.NewReader(line))); err == nil {
			t.Errorf("%q: accepted as %+v", line, f)
		}
	}
}

// TestReadFrameOverBodyLimit pins that the client's reader caps no line: a
// result line longer than service.MaxBodyBytes, the cap on what a client
// sends, is read whole. (The padding is white space between x entries, so
// the line costs its bytes and no more. Gathering it still takes ~350 MiB of
// heap, ~1 GiB under the race detector, so -short and race builds skip it.)
func TestReadFrameOverBodyLimit(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("gathers a line of service.MaxBodyBytes")
	}
	head := `{"type":"result","id":"big","ticket":1,"x":[[0,0,1],`
	tail := `[2,3,4]]}` + "\n"
	pad := int64(service.MaxBodyBytes - len(head) - len(tail) + 1)
	br := bufio.NewReaderSize(io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, pad),
		strings.NewReader(tail)), lineBuffer)
	f, err := readFrame(br)
	if err != nil {
		t.Fatalf("a %d-byte result line: %v", service.MaxBodyBytes+1, err)
	}
	if f.Type != TypeResult || f.ID != "big" || !sameBits(f.X, []service.WireEntry{{0, 0, 1}, {2, 3, 4}}) {
		t.Fatalf("read %+v", f)
	}
}

// spaces reads as an endless run of white space.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// FuzzReadFrame feeds whole lines to the client's frame reader: it never
// panics, a line it accepts is one json.Decoder decodes into plainFrame to
// the same frame, with nothing after it, and appendFrame writes an accepted
// frame as a line the reader gives back as the same frame. It refuses more
// than json.Decoder does: unknown keys, null scalars, tuples of the wrong
// length, a ticket that is negative or over the range of int, a second frame
// on the line.
func FuzzReadFrame(f *testing.F) {
	for _, line := range append(serverLines, badServerLines...) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 && nl < len(line)-1 {
			return // the reader takes one line; what follows is the next frame
		}
		got, err := readFrame(bufio.NewReader(bytes.NewReader(line)))
		if err != nil {
			return
		}
		var want plainFrame
		dec := json.NewDecoder(bytes.NewReader(line))
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("the reader accepts what encoding/json rejects (%v): %q", err, line)
		}
		if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("the reader accepted bytes after the frame: %q", line)
		}
		if want.Submit != nil || want.SameXhat {
			t.Fatalf("the reader accepted a client key: %q", line)
		}
		fromJSON := Frame{Type: want.Type, Proto: want.Proto, MaxInflight: want.MaxInflight, ID: want.ID,
			Ticket: want.Ticket, X: want.X, Code: want.Code, Error: want.Error}
		if want.Report != nil {
			rep := service.WireReport(*want.Report)
			fromJSON.Report = &rep
		}
		if !sameFrame(got, fromJSON) {
			t.Fatalf("reader %+v, encoding/json %+v: %q", got, fromJSON, line)
		}

		out, err := appendFrame(nil, &got)
		if err != nil {
			t.Fatalf("appendFrame refused a frame the reader accepted (%v): %q", err, line)
		}
		back, err := readFrame(bufio.NewReader(bytes.NewReader(out)))
		if err != nil {
			t.Fatalf("the reader refused appendFrame's own line %q: %v", out, err)
		}
		if len(got.X) == 0 {
			got.X = nil // omitted on the wire when empty
		}
		if !sameFrame(back, got) {
			t.Fatalf("round trip %+v, read %+v: %q", back, got, line)
		}
	})
}

// sameFrame reports whether two frames are equal field by field, values to
// the float bits; profiles, whose empty members encoding/json omits, are
// compared as the JSON they encode to.
func sameFrame(a, b Frame) bool {
	if !sameBits(a.X, b.X) || (a.Report == nil) != (b.Report == nil) {
		return false
	}
	if a.Report != nil {
		ra, rb := *a.Report, *b.Report
		pa, errA := json.Marshal(ra.Profile)
		pb, errB := json.Marshal(rb.Profile)
		if errA != nil || errB != nil || !bytes.Equal(pa, pb) {
			return false
		}
		ra.Profile, rb.Profile = nil, nil
		if ra != rb {
			return false
		}
	}
	a.X, b.X, a.Report, b.Report = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// TestStreamImportsNoEncodingJSON pins that the stream package's program
// code reads and writes every frame with the serving layer's scanner and
// appenders: no file of it imports encoding/json.
func TestStreamImportsNoEncodingJSON(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" {
				t.Errorf("%s imports encoding/json", name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no program files found")
	}
}

// TestCaughtUp pins when a session drains: once its buffer holds nothing but
// white space — blank lines included — and not while any byte of a next
// frame is in it.
func TestCaughtUp(t *testing.T) {
	for _, tc := range []struct {
		sent string
		want bool
	}{
		{`{"type":"submit"}` + "\n", true},
		{`{"type":"submit"}` + "\n\n \r\n", true},
		{`{"type":"submit"}` + "\n" + `{"type":"sub`, false},
		{`{"type":"submit"}` + "\n" + `{"type":"submit"}` + "\n", false},
	} {
		br := bufio.NewReader(strings.NewReader(tc.sent))
		if _, err := readLine(br, 1<<10); err != nil {
			t.Fatal(err)
		}
		if got := caughtUp(br); got != tc.want {
			t.Errorf("after the first line of %q: caughtUp = %v, want %v", tc.sent, got, tc.want)
		}
	}
}
