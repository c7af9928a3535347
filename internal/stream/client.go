package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"lbmm/internal/service"
)

// ErrSessionClosed is returned by Submit after the session ended (Close was
// called or the connection dropped).
var ErrSessionClosed = errors.New("stream: session closed")

// Call is one submitted lane's handle: Wait blocks until its result or
// error frame arrives.
type Call struct {
	// ID is the correlation key the lane was submitted under.
	ID     string
	ticket atomic.Uint64
	done   chan Frame
}

// Ticket reports the server-assigned ticket once the ticket frame arrived
// (0 before).
func (c *Call) Ticket() uint64 { return c.ticket.Load() }

// Wait blocks for the lane's outcome frame: TypeResult on success, or
// TypeError carrying the server's status code and message.
func (c *Call) Wait(ctx context.Context) (Frame, error) {
	select {
	case f := <-c.done:
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Client is one lbmm.stream.v1 session from the client side: Submit
// pipelines lanes over the single connection without waiting for earlier
// outcomes; a background reader fans ticket/result/error frames back to the
// per-lane Call handles. Safe for concurrent use.
type Client struct {
	maxInflight int

	pw   *io.PipeWriter
	body io.ReadCloser

	mu      sync.Mutex
	buf     []byte // the frame being written, reused across frames
	pending map[string]*Call
	closed  bool
	// lastXhat is the support most recently shipped explicitly; a submit
	// whose xhat matches it is sent as a same_xhat frame instead — the
	// repeated-products regime pays for its (identical) support once. It
	// advances only once a frame carrying a new support was written: a
	// submit that fails to encode never reaches the server, so it must not
	// move the client's elision state either.
	lastXhat []service.WirePos

	readerDone chan struct{}
}

// Dial opens a streaming session against a serving base URL (for example
// http://127.0.0.1:8080) and completes the hello exchange. The context
// governs the whole session: cancel it to tear the connection down.
func Dial(ctx context.Context, baseURL string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/stream/v1", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("stream: dial: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		resp.Body.Close()
		return nil, fmt.Errorf("stream: dial: server answered %s", resp.Status)
	}
	c := &Client{
		pw:         pw,
		body:       resp.Body,
		pending:    map[string]*Call{},
		readerDone: make(chan struct{}),
	}
	c.mu.Lock()
	err = c.write(&Frame{Type: TypeHello, Proto: Proto})
	c.mu.Unlock()
	if err != nil {
		c.teardown()
		return nil, fmt.Errorf("stream: hello: %w", err)
	}
	br := bufio.NewReaderSize(resp.Body, lineBuffer)
	hello, err := readFrame(br)
	if err != nil {
		c.teardown()
		return nil, fmt.Errorf("stream: hello: %w", err)
	}
	if hello.Type == TypeError {
		c.teardown()
		return nil, fmt.Errorf("stream: hello rejected: %s", hello.Error)
	}
	if hello.Type != TypeHello || hello.Proto != Proto {
		c.teardown()
		return nil, fmt.Errorf("stream: unexpected hello %q/%q", hello.Type, hello.Proto)
	}
	c.maxInflight = hello.MaxInflight
	go c.readLoop(br)
	return c, nil
}

// MaxInflight is the per-session lane cap the server advertised in its
// hello — submits beyond it come back as code-429 error frames.
func (c *Client) MaxInflight() int { return c.maxInflight }

// Submit pipelines one lane under the given correlation id (unique among
// lanes currently in flight) and returns its handle without waiting for the
// outcome.
func (c *Client) Submit(id string, wm *service.WireMultiply) (*Call, error) {
	call := &Call{ID: id, done: make(chan Frame, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if _, dup := c.pending[id]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("stream: id %q already in flight", id)
	}
	c.pending[id] = call
	f := Frame{Type: TypeSubmit, ID: id, Submit: wm}
	newXhat := len(wm.Xhat) > 0 && !slices.Equal(wm.Xhat, c.lastXhat)
	if len(wm.Xhat) > 0 && !newXhat {
		// Ship a copy with the support elided rather than mutating the
		// caller's request.
		elided := *wm
		elided.Xhat = nil
		f.Submit, f.SameXhat = &elided, true
	}
	err := c.write(&f)
	if err != nil {
		delete(c.pending, id)
	} else if newXhat {
		c.lastXhat = wm.Xhat
	}
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("stream: submit: %w", err)
	}
	return call, nil
}

// write appends f into the client's buffer and ships it in one pipe write;
// a frame that does not encode writes nothing. The caller holds c.mu.
func (c *Client) write(f *Frame) (err error) {
	if c.buf, err = appendFrame(c.buf[:0], f); err == nil {
		_, err = c.pw.Write(c.buf)
	}
	return err
}

// readLoop fans incoming frames to their Call handles until the server
// closes its side or sends a line that is not a server frame; it then fails
// every still-pending lane.
func (c *Client) readLoop(br *bufio.Reader) {
	defer close(c.readerDone)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.failPending(err)
			return
		}
		switch f.Type {
		case TypeTicket:
			c.mu.Lock()
			if call := c.pending[f.ID]; call != nil {
				call.ticket.Store(f.Ticket)
			}
			c.mu.Unlock()
		case TypeResult, TypeError:
			c.mu.Lock()
			call := c.pending[f.ID]
			delete(c.pending, f.ID)
			c.mu.Unlock()
			if call != nil {
				call.done <- f
			}
		}
	}
}

// failPending completes every in-flight Call with a connection-loss error
// frame so no waiter hangs.
func (c *Client) failPending(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, call := range c.pending {
		delete(c.pending, id)
		call.done <- Frame{Type: TypeError, ID: id, Code: http.StatusBadGateway,
			Error: fmt.Sprintf("stream: connection lost: %v", err)}
	}
}

// Close ends the session: the submit side is closed (the server flushes
// every accepted lane's outcome before ending its side) and the reader is
// drained. Outstanding Calls complete normally before Close returns.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.pw.Close()
	<-c.readerDone
	return c.body.Close()
}

func (c *Client) teardown() {
	c.pw.Close()
	c.body.Close()
}
