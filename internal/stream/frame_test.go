package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

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
