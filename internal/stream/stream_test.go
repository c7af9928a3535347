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
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
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

// holdUntil is a FaultInjector that keeps every execution waiting until
// release closes — how a test holds accepted lanes in flight while it
// drives the session — giving up after 10s so a broken test cannot hang the
// server's Close.
func holdUntil(release <-chan struct{}) func(int) lbm.Injector {
	return func(int) lbm.Injector {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	}
}

// TestStreamBackpressure pins the session inflight cap: with accepted lanes
// held executing until a 429 frame has arrived, submits beyond the cap come
// back as code-429 error frames, and every accepted lane still completes.
func TestStreamBackpressure(t *testing.T) {
	ms := obsv.NewCounterSet()
	release := make(chan struct{})
	srv, ts := newStreamServer(t,
		// Enough workers that the held lanes never stall admission of the
		// ones behind them.
		service.Config{Workers: 8, FaultInjector: holdUntil(release), Metrics: ms},
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
	// The last lanes are the rejected ones: wait for them first, and let
	// the held lanes go once a 429 has arrived.
	results, rejected := 0, 0
	for i := total - 1; i >= 0; i-- {
		f, err := calls[i].Wait(ctx)
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		switch {
		case f.Type == TypeResult:
			results++
		case f.Type == TypeError && f.Code == http.StatusTooManyRequests:
			if rejected == 0 {
				close(release)
			}
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
	release := make(chan struct{})
	_, ts := newStreamServer(t,
		// The first lane is held executing until the second submit's 429
		// has arrived, so that submit deterministically trips the cap.
		service.Config{FaultInjector: holdUntil(release), Metrics: ms},
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
	close(release)
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

// TestStreamDrainLaunchesParked pins the drain rule: a session that has read
// every byte its client sent launches the lanes it parked rather than leave
// them to wait out their batch window. One burst heats the key; after a
// pause, which stretches the adaptive window to seconds, a last burst under
// the lane cap parks a group that no lane-mate will ever join — a
// closed-loop client sends nothing more until it has its results.
func TestStreamDrainLaunchesParked(t *testing.T) {
	ms := obsv.NewCounterSet()
	srv, ts := newStreamServer(t,
		service.Config{BatchAdaptive: true, BatchDelay: 10 * time.Second, Metrics: ms},
		Config{Metrics: ms})
	r := ring.Counting{}
	inst := workload.Blocks(8, 2)
	xpos := supportPositions(inst.Xhat)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seq := 0
	burst := func(lanes int, within time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(ctx, within)
		defer cancel()
		as := make([]*matrix.Sparse, lanes)
		bs := make([]*matrix.Sparse, lanes)
		calls := make([]*Call, lanes)
		for i := range calls {
			seq++
			as[i] = matrix.Random(inst.Ahat, r, int64(2*seq+1))
			bs[i] = matrix.Random(inst.Bhat, r, int64(2*seq+2))
			calls[i], err = c.Submit(fmt.Sprintf("lane-%d", seq), &service.WireMultiply{
				N: inst.N, Ring: "counting",
				A: service.WireEntries(as[i]), B: service.WireEntries(bs[i]), Xhat: xpos,
			})
			if err != nil {
				t.Fatalf("submit %d: %v", seq, err)
			}
		}
		for i, call := range calls {
			f, err := call.Wait(ctx)
			if err != nil {
				t.Fatalf("%s: no result within %v: %v", call.ID, within, err)
			}
			if f.Type != TypeResult {
				t.Fatalf("%s: %s frame: %s", call.ID, f.Type, f.Error)
			}
			if !matrix.Equal(productOf(inst.N, r, f.X), matrix.MulReference(as[i], bs[i], inst.Xhat)) {
				t.Fatalf("%s: wrong product", call.ID)
			}
		}
	}
	burst(32, 20*time.Second)
	time.Sleep(time.Second)
	burst(4, 2*time.Second)
	if got := srv.Metrics()["batch/launch_drain"]; got < 1 {
		t.Errorf("batch/launch_drain = %d, want at least the last burst's launch", got)
	}
}

// productOf builds the product a result frame carries.
func productOf(n int, r ring.Semiring, x []service.WireEntry) *matrix.Sparse {
	m := matrix.NewSparse(n, r)
	for _, e := range x {
		m.Set(int(e[0]), int(e[1]), e[2])
	}
	return m
}

// TestStreamSessionReuse drives one session through what its reused request
// and its built sticky support must get right, checking every product
// against MulReference of the lane's own values: a large lane and then a
// smaller one scanned into the same slices, a same_xhat lane at a new n, an
// out-of-range sticky support — the lane that ships it and the same_xhat
// lane after it both fail with ParseWireMultiply's error text — and a frame
// over the 1 MiB the session keeps, followed by a small lane.
func TestStreamSessionReuse(t *testing.T) {
	ms := obsv.NewCounterSet()
	_, ts := newStreamServer(t, service.Config{Metrics: ms}, Config{Metrics: ms})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := ring.Counting{}
	seq := 0
	lane := func(wm *service.WireMultiply) Frame {
		t.Helper()
		seq++
		call, err := c.Submit(fmt.Sprintf("lane-%d", seq), wm)
		if err != nil {
			t.Fatal(err)
		}
		f, err := call.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	multiply := func(n int, a, b *matrix.Sparse, xpos []service.WirePos, xhat *matrix.Support) {
		t.Helper()
		f := lane(&service.WireMultiply{N: n, Ring: "counting",
			A: service.WireEntries(a), B: service.WireEntries(b), Xhat: xpos})
		if f.Type != TypeResult {
			t.Fatalf("n=%d: %s frame: %s", n, f.Type, f.Error)
		}
		if !matrix.Equal(productOf(n, r, f.X), matrix.MulReference(a, b, xhat)) {
			t.Fatalf("n=%d: wrong product", n)
		}
	}

	// Large, then small: the small lane is appended into the large one's
	// slices, and no cell of the large one may survive into it.
	var last []service.WirePos
	for k, inst := range []*graph.Instance{workload.Blocks(64, 4), workload.Blocks(16, 2)} {
		last = supportPositions(inst.Xhat)
		multiply(inst.N, matrix.Random(inst.Ahat, r, int64(2*k+1)), matrix.Random(inst.Bhat, r, int64(2*k+2)),
			last, inst.Xhat)
	}

	// The same positions at a new n: the client elides them, and the session
	// builds its sticky support again for the new dimension.
	reused := ms.Get(MetricXhatReuse)
	wide := workload.Blocks(32, 2)
	multiply(wide.N, matrix.Random(wide.Ahat, r, 5), matrix.Random(wide.Bhat, r, 6), last,
		matrix.NewSupport(wide.N, last))
	if got := ms.Get(MetricXhatReuse); got != reused+1 {
		t.Fatalf("stream/xhat_reuse went %d -> %d: the lane at the new n was not sent as same_xhat", reused, got)
	}

	// A support out of range for its n: the lane that ships it and the
	// same_xhat lane after it fail as ParseWireMultiply fails on it.
	bad := &service.WireMultiply{N: 4, Ring: "counting",
		A: []service.WireEntry{{0, 1, 2}}, B: []service.WireEntry{{1, 3, 5}}, Xhat: []service.WirePos{{0, 3}, {5, 5}}}
	_, parseErr := service.ParseWireMultiply(bad)
	if parseErr == nil {
		t.Fatal("setup: the out-of-range support parses")
	}
	for i := 0; i < 2; i++ {
		if f := lane(bad); f.Type != TypeError || f.Code != http.StatusBadRequest || f.Error != parseErr.Error() {
			t.Fatalf("out-of-range sticky support, lane %d: %+v, want a 400 error frame %q", i, f, parseErr)
		}
	}
	if got := ms.Get(MetricXhatReuse); got != reused+2 {
		t.Fatalf("stream/xhat_reuse = %d, want %d: the second out-of-range lane was not sent as same_xhat", got, reused+2)
	}

	// Over the cap: 50,000 writes of one cell, 1.2 MB of entries in the
	// session's request. The answer is right, and so is the next lane's.
	over := &service.WireMultiply{N: 2, Ring: "counting",
		A: make([]service.WireEntry, 50_000), B: []service.WireEntry{{0, 1, 7}}, Xhat: []service.WirePos{{0, 1}}}
	for k := range over.A {
		over.A[k] = service.WireEntry{0, 0, 3}
	}
	if f := lane(over); f.Type != TypeResult || !reflect.DeepEqual(f.X, []service.WireEntry{{0, 1, 21}}) {
		t.Fatalf("lane over the cap: %+v, want x = [[0 1 21]]", f)
	}
	small := workload.Blocks(8, 2)
	multiply(small.N, matrix.Random(small.Ahat, r, 7), matrix.Random(small.Bhat, r, 8),
		supportPositions(small.Xhat), small.Xhat)
}

// TestSessionDropsOversizedRequest pins what a session keeps between frames:
// the slices of its one request, emptied — unless a frame grew them past
// the 1 MiB cap, in which case they go with that frame.
func TestSessionDropsOversizedRequest(t *testing.T) {
	srv := service.NewServer(service.Config{})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &session{cfg: Config{}.withDefaults(), metrics: obsv.NewCounterSet(), ctx: ctx, cancel: cancel,
		out: make(chan Frame, 16), parked: map[string]struct{}{}}
	small := `{"type":"submit","id":"small","submit":{"n":2,"ring":"counting","a":[[0,0,3]],"b":[[0,1,7]],"xhat":[[0,1]]}}`
	big := `{"type":"submit","id":"big","submit":{"n":2,"ring":"counting","a":[` +
		strings.Repeat("[0,0,3],", 49_999) + `[0,0,3]],"b":[[0,1,7]],"xhat":[[0,1]]}}`
	held := func() int { return cap(s.req.A) + cap(s.req.B) + cap(s.req.Xhat) }

	if !s.frame(srv, []byte(small)) || held() == 0 || len(s.req.A) != 0 {
		t.Fatalf("after a small frame the request holds %d cells (len %d), want its slices kept, emptied", held(), len(s.req.A))
	}
	if !s.frame(srv, []byte(big)) || held() != 0 {
		t.Fatalf("after a frame over the cap the request still holds %d cells", held())
	}
	s.wg.Wait()
	close(s.out)
	results := 0
	for f := range s.out {
		if f.Type == TypeResult {
			results++
			if !reflect.DeepEqual(f.X, []service.WireEntry{{0, 1, 21}}) {
				t.Errorf("%s: x = %v, want [[0 1 21]]", f.ID, f.X)
			}
		} else if f.Type != TypeTicket {
			t.Errorf("%s: %+v", f.ID, f)
		}
	}
	if results != 2 {
		t.Fatalf("%d results, want 2", results)
	}
}
