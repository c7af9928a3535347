package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// maxWireN bounds the declared dimension of HTTP requests: supports
// allocate O(n) row slices before any entry is read, so an unauthenticated
// request must not pick n freely.
const maxWireN = 1 << 20

// MaxBodyBytes bounds what is read before it is parsed, on every surface
// that takes request bytes: an HTTP body (a longer one is a 413), one line of
// a stream session, the body the shard router buffers to route by.
const MaxBodyBytes = 128 << 20

// wireEntry is one value cell [i, j, value]; wirePos one support position
// [i, j]. Indices are written as JSON numbers and must be integers in
// [0, n).
type (
	wireEntry = [3]float64
	wirePos   = [2]int
)

// wireMultiplyRequest is the body of POST /v1/multiply.
type wireMultiplyRequest struct {
	N         int         `json:"n"`
	Ring      string      `json:"ring,omitempty"`      // boolean|counting|minplus|maxplus|gfp|real (default real)
	Algorithm string      `json:"algorithm,omitempty"` // auto|theorem42|lemma31 (default auto)
	D         int         `json:"d,omitempty"`
	A         []wireEntry `json:"a"`
	B         []wireEntry `json:"b"`
	Xhat      []wirePos   `json:"xhat"`
	Trace     bool        `json:"trace,omitempty"`
}

// wireMultiplyReport is the how-it-was-served block shared by the scalar
// and batched multiply responses (embedded, so its fields flatten into the
// enclosing JSON object).
type wireMultiplyReport struct {
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
	Cache        string       `json:"cache"` // "hit" or "miss"
	Profile      *obsv.Export `json:"profile,omitempty"`
}

// wireMultiplyResponse is the body of a successful /v1/multiply.
type wireMultiplyResponse struct {
	X []wireEntry `json:"x"`
	wireMultiplyReport
}

// wireValueLane is one value set of POST /v1/multiply/batch.
type wireValueLane struct {
	A []wireEntry `json:"a"`
	B []wireEntry `json:"b"`
}

// wireMultiplyBatchRequest is the body of POST /v1/multiply/batch: k value
// sets over one shared sparsity structure, multiplied as a single batched
// run.
type wireMultiplyBatchRequest struct {
	N         int             `json:"n"`
	Ring      string          `json:"ring,omitempty"`
	Algorithm string          `json:"algorithm,omitempty"`
	D         int             `json:"d,omitempty"`
	Lanes     []wireValueLane `json:"lanes"`
	Xhat      []wirePos       `json:"xhat"`
	Trace     bool            `json:"trace,omitempty"`
}

// wireMultiplyBatchResponse is the body of a successful batch multiply:
// per-lane products plus the shared batch report (rounds, messages etc.
// were paid once for the whole batch).
type wireMultiplyBatchResponse struct {
	Lanes      [][]wireEntry `json:"lanes"`
	BatchLanes int           `json:"batch_lanes"`
	wireMultiplyReport
}

// multiplyReportWire assembles the report/trace block of a multiply
// response — the per-request setup the scalar and batched handlers share.
func multiplyReportWire(rep *core.Report, fp string, hit bool, profile *obsv.Export) wireMultiplyReport {
	return wireMultiplyReport{
		Rounds:       rep.Rounds,
		Phase1Rounds: rep.Phase1Rounds,
		Phase2Rounds: rep.Phase2Rounds,
		Messages:     rep.Stats.Messages,
		PeakStore:    rep.Stats.PeakStore,
		Algorithm:    rep.Name,
		Classes:      classNames(rep.Classes),
		Band:         rep.Band.String(),
		D:            rep.D,
		Fingerprint:  fp,
		Cache:        cacheWord(hit),
		Profile:      profile,
	}
}

// wirePrepareRequest is the body of POST /v1/prepare.
type wirePrepareRequest struct {
	N         int       `json:"n"`
	Ring      string    `json:"ring,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	D         int       `json:"d,omitempty"`
	Ahat      []wirePos `json:"ahat"`
	Bhat      []wirePos `json:"bhat"`
	Xhat      []wirePos `json:"xhat"`
}

type wirePrepareResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Cache       string    `json:"cache"`
	Classes     [3]string `json:"classes"`
	Band        string    `json:"band"`
	D           int       `json:"d"`
}

// wireClassifyRequest is the body of POST /v1/classify.
type wireClassifyRequest struct {
	N    int       `json:"n"`
	D    int       `json:"d,omitempty"`
	Ahat []wirePos `json:"ahat"`
	Bhat []wirePos `json:"bhat"`
	Xhat []wirePos `json:"xhat"`
}

type wireClassifyResponse struct {
	Classes [3]string `json:"classes"`
	Band    string    `json:"band"`
	D       int       `json:"d"`
	Upper   string    `json:"upper"`
	Lower   string    `json:"lower"`
}

type wireError struct {
	Error string `json:"error"`
}

// NewHandler mounts the serving API onto a fresh mux:
//
//	POST /v1/multiply        multiply values through the plan cache
//	POST /v1/multiply/batch  multiply k same-structure value sets as one batch
//	POST /v1/prepare         warm the cache for a structure
//	POST /v1/classify        Table 2 classification of a structure
//	GET  /healthz            liveness
//	GET  /metrics            JSON snapshot of every service counter
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		handleMultiply(s, w, r)
	})
	mux.HandleFunc("POST /v1/multiply/batch", func(w http.ResponseWriter, r *http.Request) {
		handleMultiplyBatch(s, w, r)
	})
	mux.HandleFunc("POST /v1/prepare", func(w http.ResponseWriter, r *http.Request) {
		handlePrepare(s, w, r)
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		handleClassify(s, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

func handleMultiply(s *Server, w http.ResponseWriter, r *http.Request) {
	var wm wireMultiplyRequest
	if err := decodeBody(w, r, wm.Scan); err != nil {
		writeDecodeErr(w, err)
		return
	}
	req, err := ParseWireMultiply(&wm)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Multiply(r.Context(), req)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wireMultiplyResponse{
		X:                  sparseEntries(resp.X),
		wireMultiplyReport: BuildWireReport(resp),
	})
}

func handleMultiplyBatch(s *Server, w http.ResponseWriter, r *http.Request) {
	var req wireMultiplyBatchRequest
	if err := decodeBody(w, r, req.Scan); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ringSR, err := resolveRing(req.Ring)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	lanes := make([]BatchLane, len(req.Lanes))
	for l, wl := range req.Lanes {
		a, err := buildSparse(req.N, ringSR, wl.A, fmt.Sprintf("lanes[%d].a", l))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		b, err := buildSparse(req.N, ringSR, wl.B, fmt.Sprintf("lanes[%d].b", l))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		lanes[l] = BatchLane{A: a, B: b}
	}
	xhat, err := buildSupport(req.N, req.Xhat, "xhat")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.MultiplyBatch(r.Context(), &MultiplyBatchRequest{
		Lanes: lanes, Xhat: xhat,
		Options: core.Options{Ring: ringSR, D: req.D, Algorithm: req.Algorithm},
		Trace:   req.Trace,
	})
	if err != nil {
		writeServeErr(w, err)
		return
	}
	out := &wireMultiplyBatchResponse{
		Lanes:              make([][]wireEntry, len(resp.X)),
		BatchLanes:         len(resp.X),
		wireMultiplyReport: multiplyReportWire(resp.Report, resp.Fingerprint, resp.CacheHit, resp.Profile),
	}
	for l, x := range resp.X {
		out.Lanes[l] = sparseEntries(x)
	}
	writeJSON(w, http.StatusOK, out)
}

func handlePrepare(s *Server, w http.ResponseWriter, r *http.Request) {
	var req wirePrepareRequest
	if err := decodeBody(w, r, req.Scan); err != nil {
		writeDecodeErr(w, err)
		return
	}
	ringSR, err := resolveRing(req.Ring)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Prepare(r.Context(), &PrepareRequest{
		Ahat: supports[0], Bhat: supports[1], Xhat: supports[2],
		Options: core.Options{Ring: ringSR, D: req.D, Algorithm: req.Algorithm},
	})
	if err != nil {
		writeServeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wirePrepareResponse{
		Fingerprint: resp.Fingerprint,
		Cache:       cacheWord(resp.CacheHit),
		Classes:     classNames(resp.Classes),
		Band:        resp.Band.String(),
		D:           resp.D,
	})
}

func handleClassify(s *Server, w http.ResponseWriter, r *http.Request) {
	var req wireClassifyRequest
	if err := decodeBody(w, r, req.Scan); err != nil {
		writeDecodeErr(w, err)
		return
	}
	supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Classify(r.Context(), &ClassifyRequest{
		Ahat: supports[0], Bhat: supports[1], Xhat: supports[2], D: req.D,
	})
	if err != nil {
		writeServeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wireClassifyResponse{
		Classes: classNames(resp.Classes),
		Band:    resp.Band.String(),
		D:       resp.D,
		Upper:   resp.Upper,
		Lower:   resp.Lower,
	})
}

// ---------------------------------------------------------------------------
// wire helpers

// bodyPool recycles the buffers request bodies are read into. The scanner
// copies everything it returns, so a buffer goes back as soon as the scan
// ends; one that grew past maxPooledBody is dropped instead, so a rare huge
// request does not pin its buffer for the life of the process.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeBody reads the request body once, capped at MaxBodyBytes, and runs
// one grammar function over it.
func decodeBody(w http.ResponseWriter, r *http.Request, grammar func(*Scanner) error) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if r.ContentLength > MaxBodyBytes {
		// Declared over the cap: refused before a byte of it is buffered.
		return fmt.Errorf("reading request body: %w", &http.MaxBytesError{Limit: MaxBodyBytes})
	}
	if r.ContentLength > 0 {
		// Sized from the declared length (plus the spare room ReadFrom wants
		// before it sees EOF), but never trusting it beyond the pooled size.
		buf.Grow(int(min(r.ContentLength, maxPooledBody)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if err := ScanDocument(buf.Bytes(), grammar); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeDecodeErr answers a decodeBody failure: 413 for a body over
// MaxBodyBytes, 400 for anything else.
func writeDecodeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, err)
}

func resolveRing(name string) (ring.Semiring, error) {
	if name == "" {
		name = "real"
	}
	return matrix.RingByName(name)
}

func checkN(n int) error {
	if n < 1 || n > maxWireN {
		return fmt.Errorf("n must be in [1, %d], got %d", maxWireN, n)
	}
	return nil
}

// entryIndex is the one index check of a value triple: [i, j] may be
// written 3 or 3.0 but must be integral and in [0, n).
func entryIndex(n int, e wireEntry, what string) (i, j int, err error) {
	i, j = int(e[0]), int(e[1])
	if float64(i) != e[0] || float64(j) != e[1] || i < 0 || i >= n || j < 0 || j >= n {
		return 0, 0, fmt.Errorf("%s: entry (%g,%g) is not a valid index pair for n=%d", what, e[0], e[1], n)
	}
	return i, j, nil
}

// buildSparse builds a value matrix from wire cells in any order, with
// Sparse.Set semantics: the last write to a position wins and a zero removes
// it. Cells that arrive strictly ascending in (i, j) — the order
// WireEntries emits — are appended to one slab that Rows is carved from; the
// first cell that breaks the order sends the rest through Set.
func buildSparse(n int, r ring.Semiring, entries []wireEntry, what string) (*matrix.Sparse, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	m := matrix.NewSparse(n, r)
	zero := r.Zero()
	slab := make([]matrix.Cell, 0, len(entries))
	row, col, start := 0, -1, 0
	// closeRow hands the open row its cells, capacity clipped so that a later
	// Set on it reallocates instead of writing into the next row's cells.
	closeRow := func() {
		if len(slab) > start {
			m.Rows[row] = slab[start:len(slab):len(slab)]
		}
		start = len(slab)
	}
	for k, e := range entries {
		i, j, err := entryIndex(n, e, what)
		if err != nil {
			return nil, err
		}
		if i < row || (i == row && j <= col) {
			closeRow()
			for _, e := range entries[k:] {
				i, j, err := entryIndex(n, e, what)
				if err != nil {
					return nil, err
				}
				m.Set(i, j, e[2])
			}
			return m, nil
		}
		if i != row {
			closeRow()
		}
		row, col = i, j
		if !r.Eq(e[2], zero) {
			slab = append(slab, matrix.Cell{Col: int32(j), Val: e[2]})
		}
	}
	closeRow()
	return m, nil
}

// buildSupport builds a support from wire positions in any order, duplicates
// collapsing. Positions that arrive strictly ascending in (i, j) — the order
// Support.Entries emits — become row lists directly and finish through
// matrix.SupportFromRows, linear and sort-free; anything else goes to
// matrix.NewSupport.
func buildSupport(n int, positions []wirePos, what string) (*matrix.Support, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	rows := make([][]int32, n)
	slab := make([]int32, 0, len(positions))
	ordered := true
	row, col, start := 0, -1, 0
	closeRow := func() {
		if len(slab) > start {
			rows[row] = slab[start:len(slab):len(slab)]
		}
		start = len(slab)
	}
	for _, p := range positions {
		i, j := p[0], p[1]
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("%s: position (%d,%d) out of range for n=%d", what, i, j, n)
		}
		if !ordered {
			continue // only the range check is left to do
		}
		if i < row || (i == row && j <= col) {
			ordered = false
			continue
		}
		if i != row {
			closeRow()
		}
		row, col = i, j
		slab = append(slab, int32(j))
	}
	if !ordered {
		return matrix.NewSupport(n, positions), nil
	}
	closeRow()
	return matrix.SupportFromRows(n, rows)
}

func buildSupports(n int, ahat, bhat, xhat []wirePos) ([3]*matrix.Support, error) {
	var out [3]*matrix.Support
	for idx, in := range []struct {
		pos  []wirePos
		what string
	}{{ahat, "ahat"}, {bhat, "bhat"}, {xhat, "xhat"}} {
		s, err := buildSupport(n, in.pos, in.what)
		if err != nil {
			return out, err
		}
		out[idx] = s
	}
	return out, nil
}

func sparseEntries(m *matrix.Sparse) []wireEntry {
	out := make([]wireEntry, 0, m.NNZ())
	for i, row := range m.Rows {
		for _, c := range row {
			out = append(out, wireEntry{float64(i), float64(c.Col), c.Val})
		}
	}
	return out
}

func classNames(cs [3]matrix.Class) [3]string {
	return [3]string{cs[0].String(), cs[1].String(), cs[2].String()}
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, wireError{Error: err.Error()})
}

// statusClientClosedRequest is the (nginx-conventional) status for a
// request whose caller hung up while it waited for admission; Go's net/http
// has no named constant for it.
const statusClientClosedRequest = 499

// writeServeErr answers a serving-layer error with its ErrStatus code.
func writeServeErr(w http.ResponseWriter, err error) {
	status := ErrStatus(err)
	if status == http.StatusServiceUnavailable {
		// Shed means "come back, just not immediately": a Retry-After turns
		// client retry storms into backoff instead of hammering.
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, status, err)
}
