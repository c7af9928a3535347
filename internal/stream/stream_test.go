package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lbmm/internal/control"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// newStreamServer stands up a real HTTP server (httptest; full duplex needs
// a live connection, not a recorder) with the streaming endpoint and the
// scalar API mounted together, the way serve -stream runs them.
func newStreamServer(t *testing.T, svcCfg service.Config, strCfg Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if svcCfg.Metrics == nil {
		svcCfg.Metrics = obsv.NewCounterSet()
	}
	if strCfg.Metrics == nil {
		strCfg.Metrics = svcCfg.Metrics
	}
	srv := service.NewServer(svcCfg)
	mux := http.NewServeMux()
	mux.Handle("/v1/", service.NewHandler(srv))
	mux.Handle("/stream/", NewHandler(srv, strCfg))
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func supportPositions(s *matrix.Support) []service.WirePos {
	var out []service.WirePos
	for i, row := range s.Rows {
		for _, j := range row {
			out = append(out, service.WirePos{i, int(j)})
		}
	}
	return out
}

// TestStreamPipeline256 is the acceptance scenario: one connection
// pipelines 256 lanes of one structure through the adaptive controller.
// Every product must be correct, the controller must have batched (fewer
// launches than lanes, with the first launch immediate — the key was cold),
// and the goroutine high-water mark must stay far below the lane count.
func TestStreamPipeline256(t *testing.T) {
	base := runtime.NumGoroutine()
	ms := obsv.NewCounterSet()
	// A generous window keeps the hot/cold call about pipelining rather
	// than wall-clock speed: under -race the client encodes submits an
	// order of magnitude slower, and the controller must still see the
	// stream as hot.
	srv, ts := newStreamServer(t,
		service.Config{BatchAdaptive: true, BatchSize: 16, BatchDelay: 50 * time.Millisecond, Metrics: ms},
		Config{Metrics: ms})

	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	xpos := supportPositions(inst.Xhat)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MaxInflight() <= 0 {
		t.Fatalf("hello advertised max_inflight %d, want > 0", c.MaxInflight())
	}

	const lanes = 256
	as := make([]*matrix.Sparse, lanes)
	bs := make([]*matrix.Sparse, lanes)
	calls := make([]*Call, lanes)
	for i := 0; i < lanes; i++ {
		as[i] = matrix.Random(inst.Ahat, r, int64(2*i+1))
		bs[i] = matrix.Random(inst.Bhat, r, int64(2*i+2))
		calls[i], err = c.Submit(fmt.Sprintf("lane-%d", i), &service.WireMultiply{
			N: inst.N, Ring: "counting",
			A: service.WireEntries(as[i]), B: service.WireEntries(bs[i]), Xhat: xpos,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	seen := map[uint64]bool{}
	for i, call := range calls {
		f, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		if f.Type != TypeResult {
			t.Fatalf("lane %d: %s frame: %s", i, f.Type, f.Error)
		}
		if f.Ticket == 0 || seen[f.Ticket] {
			t.Fatalf("lane %d: ticket %d missing or duplicated", i, f.Ticket)
		}
		seen[f.Ticket] = true
		got := matrix.NewSparse(inst.N, r)
		for _, e := range f.X {
			got.Set(int(e[0]), int(e[1]), e[2])
		}
		if want := matrix.MulReference(as[i], bs[i], inst.Xhat); !matrix.Equal(got, want) {
			t.Fatalf("lane %d: wrong product", i)
		}
	}

	m := srv.Metrics()
	if m[MetricResults] != lanes {
		t.Errorf("stream/results = %d, want %d", m[MetricResults], lanes)
	}
	launches := m["batch/size/count"]
	if launches == 0 || launches >= lanes {
		t.Errorf("batch launches = %d for %d lanes: the hot fingerprint never coalesced", launches, lanes)
	}
	if m[control.MetricImmediate] < 1 {
		t.Errorf("control/immediate = %d: the cold first arrival must launch immediately", m[control.MetricImmediate])
	}
	if m[control.MetricBatched] == 0 {
		t.Errorf("control/batched = 0: the hot fingerprint never got a window")
	}
	if hwm := m[MetricGoroutineHWM]; hwm > int64(base)+64 {
		t.Errorf("goroutine high-water mark %d (baseline %d): streamed lanes must not park goroutines", hwm, base)
	}
}

// TestStreamColdImmediate pins the controller's cold path end to end: a
// single streamed lane launches immediately — no coalesce delay and an
// immediate launch reason on the wire-visible metrics.
func TestStreamColdImmediate(t *testing.T) {
	ms := obsv.NewCounterSet()
	srv, ts := newStreamServer(t,
		service.Config{BatchAdaptive: true, Metrics: ms},
		Config{Metrics: ms})

	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	call, err := c.Submit("only", &service.WireMultiply{
		N: inst.N, Ring: "counting",
		A: service.WireEntries(a), B: service.WireEntries(b), Xhat: supportPositions(inst.Xhat),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := call.Wait(ctx)
	if err != nil || f.Type != TypeResult {
		t.Fatalf("outcome %v / %+v", err, f)
	}
	m := srv.Metrics()
	if m[control.MetricImmediate] != 1 {
		t.Errorf("control/immediate = %d, want 1", m[control.MetricImmediate])
	}
	if m["batch/launch_immediate"] != 1 {
		t.Errorf("batch/launch_immediate = %d, want 1", m["batch/launch_immediate"])
	}
}

// TestStreamBackpressure pins the session inflight cap: with lanes parked
// behind a long static batch window, submits beyond the cap come back as
// code-429 error frames, and every accepted lane still completes.
func TestStreamBackpressure(t *testing.T) {
	ms := obsv.NewCounterSet()
	srv, ts := newStreamServer(t,
		service.Config{BatchSize: 64, BatchDelay: 300 * time.Millisecond, Metrics: ms},
		Config{MaxInflight: 4, Metrics: ms})

	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	xpos := supportPositions(inst.Xhat)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total = 10
	calls := make([]*Call, total)
	for i := 0; i < total; i++ {
		a := matrix.Random(inst.Ahat, r, int64(2*i+1))
		b := matrix.Random(inst.Bhat, r, int64(2*i+2))
		calls[i], err = c.Submit(fmt.Sprintf("lane-%d", i), &service.WireMultiply{
			N: inst.N, Ring: "counting",
			A: service.WireEntries(a), B: service.WireEntries(b), Xhat: xpos,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	results, rejected := 0, 0
	for i, call := range calls {
		f, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		switch {
		case f.Type == TypeResult:
			results++
		case f.Type == TypeError && f.Code == http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("lane %d: unexpected outcome %+v", i, f)
		}
	}
	if results < 4 {
		t.Errorf("results = %d, want at least the %d accepted lanes", results, 4)
	}
	if rejected == 0 {
		t.Error("no submit was rejected: the inflight cap never engaged")
	}
	if got := srv.Metrics()[MetricBackpressure]; got != int64(rejected) {
		t.Errorf("stream/backpressure = %d, client saw %d rejections", got, rejected)
	}
}

// TestStreamStickySupport pins the repeated-products shortcut: lanes whose
// xhat matches the session's last support are shipped as same_xhat frames
// (the client elides the support transparently), the server substitutes the
// sticky copy, and every product is still correct. A same_xhat submit
// before any support shipped is a 400 error frame.
func TestStreamStickySupport(t *testing.T) {
	ms := obsv.NewCounterSet()
	srv, ts := newStreamServer(t, service.Config{Metrics: ms}, Config{Metrics: ms})
	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	xpos := supportPositions(inst.Xhat)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const lanes = 8
	as := make([]*matrix.Sparse, lanes)
	bs := make([]*matrix.Sparse, lanes)
	calls := make([]*Call, lanes)
	for i := 0; i < lanes; i++ {
		as[i] = matrix.Random(inst.Ahat, r, int64(2*i+1))
		bs[i] = matrix.Random(inst.Bhat, r, int64(2*i+2))
		wm := &service.WireMultiply{
			N: inst.N, Ring: "counting",
			A: service.WireEntries(as[i]), B: service.WireEntries(bs[i]), Xhat: xpos,
		}
		if calls[i], err = c.Submit(fmt.Sprintf("lane-%d", i), wm); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if wm.Xhat == nil {
			t.Fatalf("submit %d mutated the caller's request", i)
		}
	}
	for i, call := range calls {
		f, err := call.Wait(ctx)
		if err != nil || f.Type != TypeResult {
			t.Fatalf("lane %d: %v / %+v", i, err, f)
		}
		got := matrix.NewSparse(inst.N, r)
		for _, e := range f.X {
			got.Set(int(e[0]), int(e[1]), e[2])
		}
		if want := matrix.MulReference(as[i], bs[i], inst.Xhat); !matrix.Equal(got, want) {
			t.Fatalf("lane %d: wrong product under sticky support", i)
		}
	}
	if got := srv.Metrics()[MetricXhatReuse]; got != lanes-1 {
		t.Errorf("stream/xhat_reuse = %d, want %d (every lane after the first)", got, lanes-1)
	}

	// Raw session: same_xhat with nothing sticky yet must be a 400 frame.
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/stream/v1", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		io.WriteString(pw, `{"type":"hello","proto":"lbmm.stream.v1"}`+"\n")
		io.WriteString(pw, `{"type":"submit","id":"orphan","same_xhat":true,"submit":{"n":4,"a":[],"b":[]}}`+"\n")
		pw.Close()
	}()
	dec := json.NewDecoder(resp.Body)
	var hello Frame
	if err := dec.Decode(&hello); err != nil || hello.Type != TypeHello {
		t.Fatalf("hello: %v / %+v", err, hello)
	}
	sawErr := false
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			break
		}
		if f.Type == TypeError && f.ID == "orphan" && f.Code == http.StatusBadRequest {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("orphan same_xhat submit was not answered with a 400 error frame")
	}
}

// TestStreamStickySupportSurvivesBackpressure pins the sticky support
// across the documented backpressure-retry path: a submit that ships a NEW
// explicit xhat and is 429-rejected must still advance the server's sticky
// copy — the client committed its own the moment the frame shipped — so the
// retry, elided as same_xhat, computes against the new support rather than
// silently reusing the stale one.
func TestStreamStickySupportSurvivesBackpressure(t *testing.T) {
	ms := obsv.NewCounterSet()
	_, ts := newStreamServer(t,
		// A long static window parks the first lane so the second submit
		// deterministically trips the inflight cap.
		service.Config{BatchSize: 64, BatchDelay: 500 * time.Millisecond, Metrics: ms},
		Config{MaxInflight: 1, Metrics: ms})

	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	full := supportPositions(inst.Xhat)
	narrowPos := full[:len(full)/2]
	narrow := matrix.NewSupport(inst.N, narrowPos)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a0 := matrix.Random(inst.Ahat, r, 1)
	b0 := matrix.Random(inst.Bhat, r, 2)
	first, err := c.Submit("first", &service.WireMultiply{
		N: inst.N, Ring: "counting",
		A: service.WireEntries(a0), B: service.WireEntries(b0), Xhat: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	a1 := matrix.Random(inst.Ahat, r, 3)
	b1 := matrix.Random(inst.Bhat, r, 4)
	wm := &service.WireMultiply{
		N: inst.N, Ring: "counting",
		A: service.WireEntries(a1), B: service.WireEntries(b1), Xhat: narrowPos,
	}
	rejected, err := c.Submit("rejected", wm)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := rejected.Wait(ctx); err != nil || f.Type != TypeError || f.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit outcome %v / %+v, want a 429 error frame", err, f)
	}
	if f, err := first.Wait(ctx); err != nil || f.Type != TypeResult {
		t.Fatalf("first lane: %v / %+v", err, f)
	}

	// Retry the identical request: the client elides the support as
	// same_xhat because it committed lastXhat when the rejected frame
	// shipped — the server's sticky copy must have advanced in lockstep.
	retry, err := c.Submit("retry", wm)
	if err != nil {
		t.Fatal(err)
	}
	f, err := retry.Wait(ctx)
	if err != nil || f.Type != TypeResult {
		t.Fatalf("retried lane: %v / %+v", err, f)
	}
	got := matrix.NewSparse(inst.N, r)
	for _, e := range f.X {
		got.Set(int(e[0]), int(e[1]), e[2])
	}
	want := matrix.MulReference(a1, b1, narrow)
	if stale := matrix.MulReference(a1, b1, inst.Xhat); matrix.Equal(want, stale) {
		t.Fatal("degenerate instance: narrow and full supports give the same product")
	}
	if !matrix.Equal(got, want) {
		t.Fatal("retried same_xhat lane computed against the stale support")
	}
	if reuse := ms.Get(MetricXhatReuse); reuse != 1 {
		t.Errorf("stream/xhat_reuse = %d, want 1 (only the retry elides)", reuse)
	}
}

// countingTransport counts the request body bytes the transport reads — what
// a client actually shipped on its session.
type countingTransport struct{ sent atomic.Int64 }

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Body = countingBody{req.Body, &t.sent}
	return http.DefaultTransport.RoundTrip(req)
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// TestStreamStickyAfterFailedSubmit pins that the client's sticky support
// advances only on a frame it shipped: a submit carrying a new xhat whose
// values do not encode (NaN) fails without writing a byte, and the next
// submit with that same new xhat must ship it explicitly — not elide it as
// same_xhat and have the server compute over the previous support.
func TestStreamStickyAfterFailedSubmit(t *testing.T) {
	ms := obsv.NewCounterSet()
	_, ts := newStreamServer(t, service.Config{Metrics: ms}, Config{Metrics: ms})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr := &countingTransport{}
	c, err := Dial(ctx, ts.URL, &http.Client{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// X[0][1] = 2·5 = 10 and X[1][0] = 3·7 = 21.
	a := []service.WireEntry{{0, 0, 2}, {1, 1, 3}}
	b := []service.WireEntry{{0, 1, 5}, {1, 0, 7}}
	lane := func(id string, a []service.WireEntry, xhat service.WirePos) (*Call, error) {
		return c.Submit(id, &service.WireMultiply{N: 2, A: a, B: b, Xhat: []service.WirePos{xhat}})
	}
	outcome := func(call *Call) []service.WireEntry {
		t.Helper()
		f, err := call.Wait(ctx)
		if err != nil || f.Type != TypeResult {
			t.Fatalf("%s: %v / %+v", call.ID, err, f)
		}
		return f.X
	}

	first, err := lane("lane-1", a, service.WirePos{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcome(first); !reflect.DeepEqual(got, []service.WireEntry{{0, 1, 10}}) {
		t.Fatalf("lane-1 = %v, want [[0 1 10]]", got)
	}
	shipped := tr.sent.Load()
	_, err = lane("lane-2", []service.WireEntry{{0, 0, math.NaN()}, {1, 1, 3}}, service.WirePos{1, 0})
	if uv := (*json.UnsupportedValueError)(nil); !errors.As(err, &uv) {
		t.Fatalf("lane-2 with a NaN value: %v, want a *json.UnsupportedValueError", err)
	}
	if sent := tr.sent.Load(); sent != shipped {
		t.Fatalf("the failed submit wrote %d bytes", sent-shipped)
	}
	third, err := lane("lane-3", a, service.WirePos{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcome(third); !reflect.DeepEqual(got, []service.WireEntry{{1, 0, 21}}) {
		t.Fatalf("lane-3 = %v, want [[1 0 21]]: computed over the support of a frame that never shipped", got)
	}
	if reuse := ms.Get(MetricXhatReuse); reuse != 0 {
		t.Errorf("stream/xhat_reuse = %d, want 0 (every lane shipped a new support)", reuse)
	}
}

// TestStreamHelloTimeout pins the silent-peer reap: a client that connects
// and never sends its hello is answered and torn down by HelloTimeout
// instead of pinning the handler and writer goroutines on an
// unauthenticated endpoint forever.
func TestStreamHelloTimeout(t *testing.T) {
	_, ts := newStreamServer(t, service.Config{}, Config{HelloTimeout: 100 * time.Millisecond})
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/stream/v1", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	defer pw.Close() // never writes a hello
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.ReadAll(resp.Body)
	}()
	select {
	case <-done:
		// The session ended on its own: the silent peer was reaped.
	case <-time.After(5 * time.Second):
		t.Fatal("session with a silent peer was not reaped by HelloTimeout")
	}
}

// TestStreamHelloRequired pins the handshake: a wrong protocol version is
// answered with an error frame and the session ends.
func TestStreamHelloRequired(t *testing.T) {
	_, ts := newStreamServer(t, service.Config{}, Config{})
	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/stream/v1", pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		io.WriteString(pw, `{"type":"hello","proto":"lbmm.stream.v0"}`+"\n")
		pw.Close()
	}()
	var f Frame
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeError || !strings.Contains(f.Error, "lbmm.stream.v1") {
		t.Fatalf("frame %+v, want a protocol error naming the supported version", f)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("draining session tail: %v", err)
	}
}

// TestStreamBadSubmit pins the per-lane error path: a submit whose payload
// is invalid gets a ticket (it was accepted into the session) and then an
// error frame with code 400, while the session keeps serving later lanes.
func TestStreamBadSubmit(t *testing.T) {
	_, ts := newStreamServer(t, service.Config{}, Config{})
	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad, err := c.Submit("bad", &service.WireMultiply{
		N: 4, A: []service.WireEntry{{9, 0, 1}}, // index out of range
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := bad.Wait(ctx)
	if err != nil || f.Type != TypeError || f.Code != http.StatusBadRequest {
		t.Fatalf("bad lane outcome %v / %+v, want a 400 error frame", err, f)
	}
	if f.Ticket == 0 {
		t.Error("bad lane got no ticket: accepted submits must be ticketed even when they fail")
	}

	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	good, err := c.Submit("good", &service.WireMultiply{
		N: inst.N, Ring: "counting",
		A: service.WireEntries(a), B: service.WireEntries(b), Xhat: supportPositions(inst.Xhat),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f, err := good.Wait(ctx); err != nil || f.Type != TypeResult {
		t.Fatalf("good lane after bad one: %v / %+v", err, f)
	}
}
