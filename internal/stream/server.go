package stream

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/service"
)

// Config tunes the streaming handler. The zero value gets defaults.
type Config struct {
	// MaxInflight caps how many accepted lanes a session may have
	// outstanding (default 512). Submits beyond the cap are answered with a
	// code-429 error frame instead of a ticket — explicit backpressure the
	// client can pace against, advertised in the server hello.
	MaxInflight int
	// WriteTimeout bounds one frame write to the client (default 30s): a
	// session whose peer stops reading is torn down rather than left
	// holding results — and, transitively, worker goroutines — forever.
	WriteTimeout time.Duration
	// HelloTimeout bounds the wait for the client's opening hello frame
	// (default 10s): a peer that connects and never speaks — the endpoint is
	// unauthenticated — is reaped instead of pinning the handler and writer
	// goroutines for its connection's lifetime.
	HelloTimeout time.Duration
	// IdleTimeout bounds the silence between client frames after the hello
	// (default 5m): a session whose peer went away without closing its side
	// is reaped once its accepted lanes drain. An actively pipelining client
	// never comes near it; a client holding a session open across longer
	// pauses reconnects — one round, the cost the protocol already budgets.
	IdleTimeout time.Duration
	// Metrics receives the stream/* counters; a fresh set when nil. Pass
	// the server's set so they land beside serve/* and batch/*.
	Metrics *obsv.CounterSet
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewCounterSet()
	}
	return c
}

// NewHandler mounts the streaming session endpoint:
//
//	POST /stream/v1   one lbmm.stream.v1 session per request
//
// The handler answers over the same connection it reads from (HTTP
// full-duplex, chunked NDJSON both ways), so the whole session is one
// round of connection setup no matter how many lanes it carries.
func NewHandler(srv *service.Server, cfg Config) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /stream/v1", func(w http.ResponseWriter, r *http.Request) {
		serveSession(srv, cfg, w, r)
	})
	return mux
}

// session is one open streaming connection: the read loop (the handler
// goroutine itself) decodes frames and submits lanes; a single writer
// goroutine owns the response so frames never interleave; deliver callbacks
// run on batch-runner goroutines and enqueue outcomes.
type session struct {
	cfg     Config
	metrics *obsv.CounterSet
	ctx     context.Context
	cancel  context.CancelFunc
	out     chan Frame

	inflight atomic.Int64
	wg       sync.WaitGroup // outstanding delivers

	// The read loop's own state.
	ticket uint64
	// req is the one request every frame's submit payload is scanned into;
	// it is Reset after each frame, so a warm session appends a lane's cells
	// into slices it already holds.
	req service.WireMultiply
	// xhat is the session's sticky output support.
	xhat stickySupport
	// parked holds the fingerprints lanes were parked under since the last
	// drain — usually one.
	parked map[string]struct{}
}

// stickySupport is a session's sticky output support: a copy of the
// positions the last submit frame carrying any shipped, accepted or not,
// which same_xhat lanes reuse, and the support built from them for the n
// the last lane declared — or the error building it gave. A shipped support
// is built once per n, not once per lane, and every lane sees exactly the
// support and error service.ParseWireMultiply would build from the same
// positions.
type stickySupport struct {
	pos   []service.WirePos // nil until a frame ships a support
	built bool
	n     int
	xhat  *matrix.Support
	err   error
}

// ship records the positions a submit frame carried.
func (st *stickySupport) ship(pos []service.WirePos) {
	if slices.Equal(st.pos, pos) {
		return // the same support again: what was built still stands
	}
	st.pos = append(st.pos[:0], pos...)
	st.built = false
}

// support returns the shipped support built for dimension n.
func (st *stickySupport) support(n int) (*matrix.Support, error) {
	if !st.built || st.n != n {
		st.xhat, st.err = service.WireSupport(n, st.pos)
		st.built, st.n = true, n
	}
	return st.xhat, st.err
}

func serveSession(srv *service.Server, cfg Config, w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		// The underlying ResponseWriter cannot interleave reads and writes
		// (exotic middleware wrapper): a streaming session is impossible.
		http.Error(w, "stream: full-duplex unsupported on this connection", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	s := &session{
		cfg:     cfg,
		metrics: cfg.Metrics,
		ctx:     ctx,
		cancel:  cancel,
		// Capacity covers the worst case of every accepted lane holding a
		// ticket and a result in flight at once, so a deliver callback's
		// enqueue only ever waits on the writer, never on channel space
		// contended by read-loop frames.
		out:    make(chan Frame, 2*cfg.MaxInflight+16),
		parked: map[string]struct{}{},
	}
	s.metrics.Add(MetricSessionsTotal, 1)
	s.metrics.Add(MetricSessions, 1)
	defer s.metrics.Add(MetricSessions, -1)

	writerDone := make(chan struct{})
	go s.writer(w, rc, writerDone)

	br := bufio.NewReaderSize(r.Body, lineBuffer)
	// Best-effort (like the write deadlines): a ResponseWriter that supports
	// full duplex but not read deadlines still gets a working session, it
	// just cannot reap silent peers.
	_ = rc.SetReadDeadline(time.Now().Add(cfg.HelloTimeout))
	if err := readHello(br); err != nil {
		s.send(Frame{Type: TypeError, Code: http.StatusBadRequest, Error: err.Error()})
		s.metrics.Add(MetricErrors, 1)
	} else {
		s.send(Frame{Type: TypeHello, Proto: Proto, MaxInflight: cfg.MaxInflight})
		s.readLoop(srv, rc, br)
	}

	// The client closed its side (or sent garbage): every accepted lane
	// still owes exactly one outcome. Wait for the delivers, then let the
	// writer drain the tail of the outbox.
	s.wg.Wait()
	close(s.out)
	<-writerDone
}

// lineBuffer is the session reader's buffer: a frame line that fits is
// scanned in place, a longer one is gathered into a slice of its own.
const lineBuffer = 64 << 10

var errLineTooLong = errors.New("stream: frame line too long")

// readLine returns the next non-blank NDJSON line, giving up on one once it
// has gathered more than max bytes of it. The line may alias br's buffer and
// is valid until the next read; the last line of the body needs no newline.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull {
				if len(long) > max {
					return nil, fmt.Errorf("%w (over %d bytes)", errLineTooLong, max)
				}
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(bytes.Trim(line, " \t\r\n")) > 0 {
			return line, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func readHello(br *bufio.Reader) error {
	var f Frame
	line, err := readLine(br, service.MaxBodyBytes)
	if err == nil {
		f, err = scanFrame(line)
	}
	if err != nil {
		return fmt.Errorf("stream: session must open with a hello frame: %v", err)
	}
	if f.Type != TypeHello {
		return fmt.Errorf("stream: first frame must be hello, got %q", f.Type)
	}
	if f.Proto != Proto {
		return fmt.Errorf("stream: protocol %q not supported (want %s)", f.Proto, Proto)
	}
	return nil
}

// readLoop scans one frame per line until the client closes, sends a line
// that is not a frame, or idles past IdleTimeout. A malformed line (code 400)
// or one over service.MaxBodyBytes (code 413) is answered with an error frame
// and ends the session: the sticky support tracks frames shipped, so a frame
// that could not be read leaves nothing safe to resume from. It is the only
// goroutine that blocks in admission control, so a saturated server stalls
// the session's intake — backpressure by TCP — while already accepted lanes
// keep completing.
//
// Before a read that can only wait on the client — every byte it sent so far
// has been read — it drains: the groups holding only lanes it parked are
// launched rather than left to wait out their batch window for lane-mates.
// Such a group forms from the lanes the session has received, the one whose
// line is partly in the buffer included; a closed-loop client, which sends
// its next burst only after the last result, would otherwise pay the whole
// window on every burst's tail. A group another session or a /v1/multiply
// caller also parked in keeps its window, since its other submitters may
// still be sending.
func (s *session) readLoop(srv *service.Server, rc *http.ResponseController, br *bufio.Reader) {
	defer s.drain(srv)
	for {
		if caughtUp(br) {
			s.drain(srv)
		}
		// Re-armed per frame: the deadline bounds silence, not session length.
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		line, err := readLine(br, service.MaxBodyBytes)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				s.fail("", 0, http.StatusRequestEntityTooLarge, err)
			}
			return
		}
		if !s.frame(srv, line) {
			return
		}
	}
}

// caughtUp reports whether br holds nothing but white space: the next frame
// is not even partly here, so reading it waits on the client.
func caughtUp(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return len(bytes.TrimLeft(buf, " \t\r\n")) == 0
}

// drain launches the groups the session parked lanes in since the last
// drain, those that hold no one else's lanes.
func (s *session) drain(srv *service.Server) {
	for fp := range s.parked {
		srv.Launch(s.ctx, fp)
	}
	clear(s.parked)
}

// frame serves one line of the session and reports whether the session goes
// on: a line that is not a frame ends it.
func (s *session) frame(srv *service.Server, line []byte) bool {
	defer s.req.Reset()
	f, err := scanFrameInto(line, &s.req)
	if err != nil {
		s.fail(f.ID, 0, http.StatusBadRequest, fmt.Errorf("stream: bad frame: %v", err))
		return false
	}
	switch f.Type {
	case TypeSubmit:
		s.submit(srv, f)
	default:
		s.metrics.Add(MetricErrors, 1)
		s.send(Frame{Type: TypeError, ID: f.ID, Code: http.StatusBadRequest,
			Error: fmt.Sprintf("stream: unknown frame type %q", f.Type)})
	}
	return true
}

func (s *session) submit(srv *service.Server, f Frame) {
	s.metrics.Add(MetricSubmits, 1)
	s.observeGoroutines()
	// The sticky support advances in submit order regardless of admission:
	// the client commits its own copy the moment it ships an explicit xhat,
	// so a submit rejected below (backpressure, bad payload) must still
	// refresh the server's — or a retry elided as same_xhat would silently
	// compute against the stale previous support.
	if f.Submit != nil && len(f.Submit.Xhat) > 0 {
		s.xhat.ship(f.Submit.Xhat)
	}
	if s.inflight.Load() >= int64(s.cfg.MaxInflight) {
		s.metrics.Add(MetricBackpressure, 1)
		s.send(Frame{Type: TypeError, ID: f.ID, Code: http.StatusTooManyRequests,
			Error: fmt.Sprintf("stream: session inflight cap %d reached", s.cfg.MaxInflight)})
		return
	}
	s.ticket++
	t := s.ticket
	s.send(Frame{Type: TypeTicket, ID: f.ID, Ticket: t})
	if f.Submit == nil {
		s.fail(f.ID, t, http.StatusBadRequest, fmt.Errorf("stream: submit frame carries no payload"))
		return
	}
	var (
		req *service.MultiplyRequest
		err error
	)
	if len(f.Submit.Xhat) > 0 || f.SameXhat {
		if len(f.Submit.Xhat) == 0 {
			if s.xhat.pos == nil {
				s.fail(f.ID, t, http.StatusBadRequest,
					fmt.Errorf("stream: same_xhat set before any lane shipped a support"))
				return
			}
			s.metrics.Add(MetricXhatReuse, 1)
		}
		xhat, xerr := s.xhat.support(f.Submit.N)
		req, err = service.ParseWireValues(f.Submit, xhat, xerr)
	} else {
		req, err = service.ParseWireMultiply(f.Submit)
	}
	if err != nil {
		s.fail(f.ID, t, http.StatusBadRequest, err)
		return
	}
	id := f.ID
	s.inflight.Add(1)
	s.wg.Add(1)
	fp, err := srv.MultiplySubmit(s.ctx, req, func(resp *service.MultiplyResponse, err error) {
		defer s.wg.Done()
		defer s.inflight.Add(-1)
		if err != nil {
			s.metrics.Add(MetricErrors, 1)
			s.send(Frame{Type: TypeError, ID: id, Ticket: t, Code: service.ErrStatus(err), Error: err.Error()})
			return
		}
		rep := service.BuildWireReport(resp)
		s.metrics.Add(MetricResults, 1)
		s.send(Frame{Type: TypeResult, ID: id, Ticket: t, X: service.WireEntries(resp.X), Report: &rep})
	})
	if err != nil {
		// Rejected synchronously: the deliver callback will never run.
		s.wg.Done()
		s.inflight.Add(-1)
		s.fail(id, t, service.ErrStatus(err), err)
		return
	}
	s.parked[fp] = struct{}{}
}

func (s *session) fail(id string, ticket uint64, code int, err error) {
	s.metrics.Add(MetricErrors, 1)
	s.send(Frame{Type: TypeError, ID: id, Ticket: ticket, Code: code, Error: err.Error()})
}

// send enqueues one frame for the writer, giving up if the session died —
// a deliver callback must never outlive the session blocked on its outbox.
func (s *session) send(f Frame) {
	select {
	case s.out <- f:
	case <-s.ctx.Done():
	}
}

// writer is the session's single response writer: frames leave in enqueue
// order, each appended into one reused buffer and bounded by WriteTimeout. A
// write failure (client gone, or a peer that stopped reading past the
// deadline) or a frame that does not encode cancels the session so pending
// delivers drop their results instead of backing up into workers.
func (s *session) writer(w http.ResponseWriter, rc *http.ResponseController, done chan<- struct{}) {
	defer close(done)
	var buf []byte
	write := func(f *Frame) (err error) {
		if buf, err = appendFrame(buf[:0], f); err == nil {
			_, err = w.Write(buf)
		}
		return err
	}
	fail := func() {
		s.cancel()
		for range s.out { // drain so enqueuers never block on a dead writer
		}
	}
	for f := range s.out {
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := write(&f); err != nil {
			fail()
			return
		}
		// Coalesce the flush: frames already queued (a batch delivering its
		// lanes, a ticket right behind a result) go out in the same syscall.
	drain:
		for {
			select {
			case f, ok := <-s.out:
				if !ok {
					_ = rc.Flush()
					return
				}
				if err := write(&f); err != nil {
					fail()
					return
				}
			default:
				break drain
			}
		}
		_ = rc.Flush()
	}
}

// observeGoroutines maintains the goroutine high-water-mark gauge. The
// read-modify-write races with itself across sessions; the mark is for a
// soak assertion with orders-of-magnitude headroom, not an exact census.
func (s *session) observeGoroutines() {
	if cur := int64(runtime.NumGoroutine()); cur > s.metrics.Get(MetricGoroutineHWM) {
		s.metrics.Set(MetricGoroutineHWM, cur)
	}
}
