package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lbmm/internal/chaos"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// dropAll is an injector that drops the first real message it sees —
// guaranteed to fault any plan with network traffic.
func dropAll() lbm.Injector {
	return chaos.FaultPlan{Rates: chaos.Rates{Drop: 1}}.MustInjector()
}

func faultReq(r ring.Semiring, seed int64) (*MultiplyRequest, *matrix.Sparse) {
	inst := workload.Blocks(16, 4)
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	want := matrix.MulReference(a, b, inst.Xhat)
	return &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: core.Options{Ring: r}}, want
}

// TestServerFaultRetry: a fault on the first attempt is retried within the
// budget and the retry serves the correct product.
func TestServerFaultRetry(t *testing.T) {
	srv := NewServer(Config{
		CacheSize: 4,
		FaultInjector: func(attempt int) lbm.Injector {
			if attempt == 0 {
				return dropAll()
			}
			return nil
		},
	})
	req, want := faultReq(ring.Counting{}, 1)
	resp, err := srv.Multiply(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(resp.X, want) {
		t.Error("retried request served a wrong product")
	}
	m := srv.Metrics()
	if m[MetricFaults] != 1 || m[MetricRetries] != 1 {
		t.Errorf("faults=%d retries=%d, want 1/1", m[MetricFaults], m[MetricRetries])
	}
	if m[MetricServed] != 1 || m[MetricErrors] != 0 {
		t.Errorf("served=%d errors=%d, want 1/0", m[MetricServed], m[MetricErrors])
	}
}

// pipelineModes are the three launch policies a lane can meet in the
// coalescer. The windows are short: the tests drive lanes one at a time, so
// a window only ever ends by its timer.
var pipelineModes = []struct {
	name string
	cfg  Config
}{
	{"no batching", Config{}},
	{"static", Config{BatchSize: 4, BatchDelay: time.Millisecond}},
	{"adaptive", Config{BatchSize: 4, BatchDelay: time.Millisecond, BatchAdaptive: true}},
}

// entryPoints drives one request through each way into the pipeline and
// returns the product (lane 1 of a 3-lane batch for MultiplyBatch, so the
// request rides between lane-mates) or the error.
var entryPoints = []struct {
	name  string
	lanes int64
	call  func(*Server, *MultiplyRequest) (*matrix.Sparse, error)
}{
	{"Multiply", 1, func(srv *Server, req *MultiplyRequest) (*matrix.Sparse, error) {
		resp, err := srv.Multiply(context.Background(), req)
		if err != nil {
			return nil, err
		}
		return resp.X, nil
	}},
	{"MultiplySubmit", 1, func(srv *Server, req *MultiplyRequest) (*matrix.Sparse, error) {
		type outcome struct {
			resp *MultiplyResponse
			err  error
		}
		done := make(chan outcome, 1)
		err := srv.MultiplySubmit(context.Background(), req, func(resp *MultiplyResponse, err error) {
			done <- outcome{resp, err}
		})
		if err != nil {
			return nil, err
		}
		out := <-done
		if out.err != nil {
			return nil, out.err
		}
		return out.resp.X, nil
	}},
	{"MultiplyBatch", 3, func(srv *Server, req *MultiplyRequest) (*matrix.Sparse, error) {
		mate := func(seed int64) BatchLane {
			return BatchLane{
				A: matrix.Random(req.A.Support(), req.A.R, seed),
				B: matrix.Random(req.B.Support(), req.B.R, seed+1),
			}
		}
		resp, err := srv.MultiplyBatch(context.Background(), &MultiplyBatchRequest{
			Lanes:   []BatchLane{mate(101), {A: req.A, B: req.B}, mate(103)},
			Xhat:    req.Xhat,
			Options: req.Options,
		})
		if err != nil {
			return nil, err
		}
		return resp.X[1], nil
	}},
}

// checkBooks closes the server and checks that every lane that entered
// admission ended in exactly one terminal counter and that the gauges are
// back at zero.
func checkBooks(t *testing.T, srv *Server) {
	t.Helper()
	srv.Close()
	m := srv.Metrics()
	ended := m[MetricServed] + m[MetricErrors] + m[MetricShed] + m[MetricCanceled] + m[MetricDeadlineExceeded]
	if m[MetricRequests] != ended {
		t.Errorf("books do not balance: %d lanes requested, %d ended (served=%d errors=%d shed=%d canceled=%d deadline=%d)",
			m[MetricRequests], ended, m[MetricServed], m[MetricErrors], m[MetricShed], m[MetricCanceled], m[MetricDeadlineExceeded])
	}
	for _, gauge := range []string{MetricBatchLanes, MetricActiveWorkers, MetricQueueDepth} {
		if m[gauge] != 0 {
			t.Errorf("%s = %d after Close, want 0", gauge, m[gauge])
		}
	}
}

// TestServerFaultExhausted: a fault that survives the retry budget reaches
// the caller as the typed lbm.ErrFault with its provenance — the identical
// fault through every entry point and launch policy, because one shared
// fault plan strikes by (round, message) and lanes share every round — and
// is counted per attempt (serve/faults) and per failed lane (serve/errors).
func TestServerFaultExhausted(t *testing.T) {
	inj := chaos.FaultPlan{Seed: 11, Rates: chaos.Rates{Drop: 0.3}}.MustInjector()
	var first *lbm.ErrFault
	for _, mode := range pipelineModes {
		for _, ep := range entryPoints {
			cfg := mode.cfg
			cfg.FaultInjector = func(int) lbm.Injector { return inj }
			srv := NewServer(cfg)
			req, _ := faultReq(ring.Counting{}, 3)
			_, err := ep.call(srv, req)
			f, ok := lbm.AsFault(err)
			if !ok {
				t.Fatalf("%s/%s: err = %v, want a typed lbm.ErrFault", mode.name, ep.name, err)
			}
			if f.Kind != lbm.FaultDrop || f.Round < 0 || f.Node < 0 {
				t.Errorf("%s/%s: fault lost provenance: %+v", mode.name, ep.name, f)
			}
			if first == nil {
				first = f
			} else if *f != *first {
				t.Errorf("%s/%s: fault %+v differs from the first entry point's %+v", mode.name, ep.name, f, first)
			}
			m := srv.Metrics()
			// Default budget 1: two attempts fault, one of them a retry.
			if m[MetricFaults] != 2 || m[MetricRetries] != 1 {
				t.Errorf("%s/%s: faults=%d retries=%d, want 2/1", mode.name, ep.name, m[MetricFaults], m[MetricRetries])
			}
			if m[MetricErrors] != ep.lanes || m[MetricServed] != 0 {
				t.Errorf("%s/%s: errors=%d served=%d, want %d/0", mode.name, ep.name, m[MetricErrors], m[MetricServed], ep.lanes)
			}
			checkBooks(t, srv)
		}
	}
}

// TestServerFaultSamePolicyForRestoredPlan: a plan compiled in this process
// and the same plan restored from a plan store meet the same fault policy —
// the identical typed fault and the identical counters. (Restored plans
// carry only their compiled form; a policy that leaned on the map engine
// existed for the first and not for the second.)
func TestServerFaultSamePolicyForRestoredPlan(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.FaultPlan{Seed: 5, Rates: chaos.Rates{Drop: 0.3}}.MustInjector()
	run := func() (*lbm.ErrFault, map[string]int64) {
		ms := obsv.NewCounterSet()
		st, err := planstore.Open(dir, 0, ms)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{Metrics: ms, Store: st, FaultInjector: func(int) lbm.Injector { return inj }})
		req, _ := faultReq(ring.MinPlus{}, 7)
		_, err = srv.Multiply(context.Background(), req)
		srv.Close() // drains the write-back the second run restores from
		f, ok := lbm.AsFault(err)
		if !ok {
			t.Fatalf("err = %v, want a typed lbm.ErrFault", err)
		}
		return f, srv.Metrics()
	}
	fresh, freshM := run()
	restored, restoredM := run()
	if freshM[MetricCompiles] != 1 || restoredM[MetricCompiles] != 0 || restoredM[planstore.MetricHits] != 1 {
		t.Fatalf("second run did not restore the plan: compiles %d then %d, store hits %d",
			freshM[MetricCompiles], restoredM[MetricCompiles], restoredM[planstore.MetricHits])
	}
	if *fresh != *restored {
		t.Errorf("fresh plan faulted %+v, restored plan %+v", fresh, restored)
	}
	for _, name := range []string{MetricFaults, MetricRetries, MetricErrors, MetricServed} {
		if freshM[name] != restoredM[name] {
			t.Errorf("%s: fresh %d, restored %d", name, freshM[name], restoredM[name])
		}
	}
	if freshM[MetricFaults] != 2 || freshM[MetricRetries] != 1 || freshM[MetricErrors] != 1 {
		t.Errorf("faults=%d retries=%d errors=%d, want 2/1/1",
			freshM[MetricFaults], freshM[MetricRetries], freshM[MetricErrors])
	}
}

// TestServerInvalidRequests: malformed requests fail upfront with ErrInvalid
// — before admission, with nothing admitted or cached — exactly as Classify
// always did.
func TestServerInvalidRequests(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4})
	ctx := context.Background()
	r := ring.Counting{}
	i16 := workload.Blocks(16, 4)
	i32 := workload.Blocks(32, 4)
	a16 := matrix.Random(i16.Ahat, r, 1)
	b16 := matrix.Random(i16.Bhat, r, 2)
	b32 := matrix.Random(i32.Bhat, r, 2)

	cases := []struct {
		name string
		err  func() error
	}{
		{"multiply nil values", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, Xhat: i16.Xhat})
			return err
		}},
		{"multiply dim mismatch", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, B: b32, Xhat: i16.Xhat})
			return err
		}},
		{"multiply xhat mismatch", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, B: b16, Xhat: i32.Xhat})
			return err
		}},
		{"prepare dim mismatch", func() error {
			_, err := srv.Prepare(ctx, &PrepareRequest{Ahat: i16.Ahat, Bhat: i32.Bhat, Xhat: i16.Xhat})
			return err
		}},
		{"classify dim mismatch", func() error {
			_, err := srv.Classify(ctx, &ClassifyRequest{Ahat: i16.Ahat, Bhat: i32.Bhat, Xhat: i16.Xhat})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.err(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
	m := srv.Metrics()
	if m[MetricRequests] != 0 || m[MetricErrors] != 0 {
		t.Errorf("invalid requests touched admission: requests=%d errors=%d",
			m[MetricRequests], m[MetricErrors])
	}
}

// TestWriteServeErrTaxonomy pins the HTTP status for every class in the
// error taxonomy (docs/SERVICE.md).
func TestWriteServeErrTaxonomy(t *testing.T) {
	fault := &lbm.ErrFault{Kind: lbm.FaultDrop, Round: 2, Node: 3, From: 1, To: 3}
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("wrap: " + ErrInvalid.Error()), http.StatusInternalServerError},
		{ErrInvalid, http.StatusBadRequest},
		{errors.Join(ErrInvalid, errors.New("detail")), http.StatusBadRequest},
		{ErrOverloaded, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosedRequest},
		{fault, http.StatusInternalServerError},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeServeErr(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("writeServeErr(%v) = %d, want %d", c.err, rec.Code, c.want)
		}
	}
}
