package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// slowWriter is a session's response behind a slow reader: every Write
// waits before it lands, so result frames queue in the outbox while the
// lanes behind them run. Only the session's writer goroutine writes to it.
type slowWriter struct {
	out   bytes.Buffer
	hdr   http.Header
	delay time.Duration
}

func (w *slowWriter) Header() http.Header { return w.hdr }
func (w *slowWriter) WriteHeader(int)     {}
func (w *slowWriter) Flush()              {}

// EnableFullDuplex lets http.ResponseController accept the writer for a
// session.
func (w *slowWriter) EnableFullDuplex() error { return nil }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.out.Write(p)
}

// TestStreamSlabReuse runs one session whose reader is slow, with every
// lane in flight at once over structures of four sizes: a lane's values and
// product share a pooled slab, which may go back only once the writer has
// appended the lane's result frame. Every result must equal its
// core.Multiply oracle, so a slab handed to another lane while its frame
// still waits in the outbox — or is being appended — fails the test, by
// value here and as a data race under -race.
func TestStreamSlabReuse(t *testing.T) {
	r := ring.Counting{}
	insts := []*graph.Instance{
		workload.Blocks(16, 2),
		workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 3),
		workload.Blocks(32, 4),
		workload.Mixed(48, 3, 5),
	}
	const lanes = 160
	type lane struct {
		inst *graph.Instance
		a, b *matrix.Sparse
	}
	ls := make([]lane, lanes)
	var body []byte
	body, err := appendFrame(body, &Frame{Type: TypeHello, Proto: Proto})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		inst := insts[i%len(insts)]
		ls[i] = lane{inst, matrix.Random(inst.Ahat, r, int64(2*i+1)), matrix.Random(inst.Bhat, r, int64(2*i+2))}
		wm := &service.WireMultiply{N: inst.N, Ring: "counting",
			A: service.WireEntries(ls[i].a), B: service.WireEntries(ls[i].b), Xhat: supportPositions(inst.Xhat)}
		if body, err = appendFrame(body, &Frame{Type: TypeSubmit, ID: fmt.Sprint(i), Submit: wm}); err != nil {
			t.Fatal(err)
		}
	}

	ms := obsv.NewCounterSet()
	srv := service.NewServer(service.Config{BatchSize: 8, BatchDelay: time.Millisecond, Metrics: ms})
	defer srv.Close()
	w := &slowWriter{hdr: http.Header{}, delay: 300 * time.Microsecond}
	serveSession(srv, Config{Metrics: ms}.withDefaults(), w, httptest.NewRequest(http.MethodPost, "/stream/v1", bytes.NewReader(body)))

	br := bufio.NewReader(&w.out)
	if f, err := readFrame(br); err != nil || f.Type != TypeHello {
		t.Fatalf("first frame %+v, %v: want the hello", f, err)
	}
	results := 0
	for {
		f, err := readFrame(br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case TypeTicket:
			continue
		case TypeResult:
		default:
			t.Fatalf("lane %s: %s frame: %s", f.ID, f.Type, f.Error)
		}
		var i int
		if _, err := fmt.Sscan(f.ID, &i); err != nil || i < 0 || i >= lanes {
			t.Fatalf("result for unknown lane %q", f.ID)
		}
		ln := ls[i]
		want, _, err := core.Multiply(ln.a, ln.b, ln.inst.Xhat, core.Options{Ring: r})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(productOf(ln.inst.N, r, f.X), want) {
			t.Fatalf("lane %d (n=%d): the result frame is not its product", i, ln.inst.N)
		}
		results++
	}
	if results != lanes {
		t.Fatalf("%d results for %d lanes", results, lanes)
	}
	if launches := ms.Get("batch/size/count"); launches >= lanes {
		t.Errorf("%d launches for %d lanes: no group held more than one lane", launches, lanes)
	}
}
