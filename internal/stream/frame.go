// Package stream is the session-oriented streaming transport of the serving
// layer: one long-lived connection carries many multiplies. A client opens a
// session (HTTP chunked NDJSON, POST /stream/v1, full duplex), sends submit
// frames, and gets a ticket back immediately per submit; result and error
// frames arrive asynchronously as batches launch and finish. One connection
// therefore pipelines hundreds of lanes against the coalescer — the
// repeated-products workloads the low-bandwidth model targets — without
// parking a goroutine or a socket per request the way scalar /v1/multiply
// does.
//
// The protocol is versioned as lbmm.stream.v1: a session starts with a
// hello exchange pinning the version, and every subsequent frame is one
// JSON object per line. Submit payloads reuse the exact schema of POST
// /v1/multiply (service.WireMultiply), so a scalar client upgrades by
// wrapping its request body in a frame, nothing else.
package stream

import "lbmm/internal/service"

// Proto is the protocol version pinned by the hello exchange.
const Proto = "lbmm.stream.v1"

// Frame types. Client→server: hello, submit. Server→client: hello, ticket,
// result, error.
const (
	TypeHello  = "hello"
	TypeSubmit = "submit"
	TypeTicket = "ticket"
	TypeResult = "result"
	TypeError  = "error"
)

// Frame is one NDJSON line of a lbmm.stream.v1 session — a tagged union
// over the frame types (unused fields are omitted on the wire).
//
//	client  {"type":"hello","proto":"lbmm.stream.v1"}
//	server  {"type":"hello","proto":"lbmm.stream.v1","max_inflight":512}
//	client  {"type":"submit","id":"lane-0","submit":{...same body as /v1/multiply...}}
//	server  {"type":"ticket","id":"lane-0","ticket":1}
//	server  {"type":"result","id":"lane-0","ticket":1,"x":[[i,j,v],...],"report":{...}}
//	server  {"type":"error","id":"lane-0","ticket":1,"code":503,"error":"..."}
//
// id is the client's correlation key, echoed verbatim on the ticket and the
// outcome; ticket is the server-assigned sequence number recording that the
// lane was accepted into the session. An error frame with code 429 is
// session backpressure: the submit exceeded the advertised max_inflight and
// was not accepted (no ticket is issued).
//
// same_xhat is the repeated-products shortcut: lanes of one session usually
// share a single output support, so a submit may omit xhat and set
// same_xhat to reuse the last support shipped on this session (the server
// remembers it in submit order; a submit that does carry xhat refreshes it
// even when that submit itself is refused — backpressure or a bad payload —
// so the sticky state tracks frames shipped, exactly mirroring the client's
// elision state across a 429-then-retry). Setting same_xhat before any lane
// shipped a support is a code-400 error frame.
type Frame struct {
	Type        string                `json:"type"`
	Proto       string                `json:"proto,omitempty"`
	MaxInflight int                   `json:"max_inflight,omitempty"`
	ID          string                `json:"id,omitempty"`
	Ticket      uint64                `json:"ticket,omitempty"`
	Submit      *service.WireMultiply `json:"submit,omitempty"`
	SameXhat    bool                  `json:"same_xhat,omitempty"`
	X           []service.WireEntry   `json:"x,omitempty"`
	Report      *service.WireReport   `json:"report,omitempty"`
	Code        int                   `json:"code,omitempty"`
	Error       string                `json:"error,omitempty"`
}

// scanFrame scans one client→server line with the serving layer's request
// scanner: exactly the keys a client frame has (type, proto, id, submit,
// same_xhat), the submit payload through the /v1/multiply grammar, nothing
// after the object. On an error the frame holds what was scanned before it,
// so an error frame can still name the id.
func scanFrame(line []byte) (Frame, error) {
	var f Frame
	err := service.ScanDocument(line, func(s *service.Scanner) error {
		return s.Object(func(key []byte) (err error) {
			switch string(key) {
			case "type":
				f.Type, err = s.String()
			case "proto":
				f.Proto, err = s.String()
			case "id":
				f.ID, err = s.String()
			case "submit":
				f.Submit = new(service.WireMultiply)
				err = f.Submit.Scan(s)
			case "same_xhat":
				f.SameXhat, err = s.Bool()
			default:
				err = s.UnknownKey(key)
			}
			return err
		})
	})
	return f, err
}

// Counter names published by the streaming layer (gauges noted).
const (
	MetricSessions      = "stream/sessions" // gauge: open sessions
	MetricSessionsTotal = "stream/sessions_total"
	MetricSubmits       = "stream/submits"
	MetricResults       = "stream/results"
	MetricErrors        = "stream/errors"
	MetricBackpressure  = "stream/backpressure" // submits rejected over the inflight cap
	MetricXhatReuse     = "stream/xhat_reuse"   // submits that reused the session's sticky support
	// MetricGoroutineHWM is a gauge tracking the goroutine high-water mark
	// sampled at submit time: the soak drill asserts it stays far below the
	// lane count, proving streamed lanes park no per-request goroutine.
	MetricGoroutineHWM = "stream/goroutines_hwm"
)
