package service

import (
	"bytes"
	"context"
	"math"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// sameListing reports whether two value requests list the same structure
// and values (bit for bit) under the same options.
func sameListing(got, want *ValueRequest) bool {
	if got.list.N != want.list.N || !got.list.A.Equal(&want.list.A) || !got.list.B.Equal(&want.list.B) ||
		!got.list.X.Equal(&want.list.X) || len(got.a) != len(want.a) || len(got.b) != len(want.b) ||
		got.opts.Ring.Name() != want.opts.Ring.Name() || got.opts.D != want.opts.D ||
		got.opts.Algorithm != want.opts.Algorithm || got.trace != want.trace {
		return false
	}
	for _, vs := range [][2][]ring.Value{{got.a, want.a}, {got.b, want.b}} {
		for k := range vs[0] {
			if math.Float64bits(vs[0][k]) != math.Float64bits(vs[1][k]) {
				return false
			}
		}
	}
	return true
}

// FuzzListWire holds the direct listing to the general build: for every body
// the scanner accepts, ListWire lists what ParseWireMultiply builds — the
// same structure, the same values in support order, the same options — or
// fails with its error text.
func FuzzListWire(f *testing.F) {
	for _, body := range []string{
		// row-major ascending
		`{"n":4,"ring":"counting","a":[[0,1,2],[1,0,3],[1,2,4],[3,3,5]],"b":[[0,0,1],[1,2,2],[2,1,3]],"xhat":[[0,0],[0,2],[1,1],[3,1]]}`,
		// shuffled
		`{"n":4,"ring":"counting","a":[[3,3,5],[0,1,2],[1,2,4],[1,0,3]],"b":[[2,1,3],[0,0,1],[1,2,2]],"xhat":[[3,1],[0,2],[1,1],[0,0]]}`,
		// a duplicate cell, and a duplicate position
		`{"n":4,"a":[[0,1,2],[1,0,3],[1,0,6]],"b":[[0,0,1]],"xhat":[[0,0],[0,0]]}`,
		// an explicit zero, over a stored cell and over an empty one
		`{"n":4,"a":[[0,1,2],[1,0,0],[2,2,1],[2,2,0]],"b":[[0,0,1]],"xhat":[[1,1]]}`,
		// indices written 3.0
		`{"n":4,"a":[[3.0,1,2]],"b":[[1,3.0,1]],"xhat":[[3,1]]}`,
		// an out-of-range index
		`{"n":4,"a":[[0,1,2],[4,0,1]],"b":[],"xhat":[]}`,
		`{"n":4,"a":[],"b":[],"xhat":[[0,1],[2,4]]}`,
		// an empty a
		`{"n":3,"a":[],"b":[[0,1,1]],"xhat":[[0,1]]}`,
		// a minplus body, whose zero is +Inf: 0 is a value
		`{"n":3,"ring":"minplus","d":2,"algorithm":"trivial","a":[[0,0,0],[0,2,1.5]],"b":[[2,1,-1]],"xhat":[[0,1]],"trace":true}`,
		// n out of range, an unknown ring
		`{"n":0,"a":[],"b":[],"xhat":[]}`,
		`{"n":2,"ring":"octonion","a":[],"b":[],"xhat":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wm wireMultiplyRequest
		if DecodeWireMultiply(body, &wm) != nil || wm.N > 1<<12 {
			return
		}
		var got ValueRequest
		gotErr := ListWire(&got, &wm)
		req, wantErr := ParseWireMultiply(&wm)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ListWire: %v; ParseWireMultiply: %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		want := ValueRequest{opts: req.Options, trace: req.Trace}
		var err error
		if want.a, want.b, err = listRequest("", "", req.A, req.B, req.Xhat, &want.list); err != nil {
			t.Fatal(err)
		}
		if !sameListing(&got, &want) {
			t.Fatalf("ListWire listed %+v, the build lists %+v", got, want)
		}
	})
}

// listedInstance is a value request over inst with value seed s, listed
// from the wire as a handler lists it.
func listedInstance(t testing.TB, inst *graph.Instance, s int64) *ValueRequest {
	t.Helper()
	r := ring.Counting{}
	wm := &wireMultiplyRequest{
		N: inst.N, Ring: "counting", Xhat: supportPositions(inst.Xhat),
		A: sparseEntries(matrix.Random(inst.Ahat, r, 2*s+1)), B: sparseEntries(matrix.Random(inst.Bhat, r, 2*s+2)),
	}
	vr := new(ValueRequest)
	if err := ListWire(vr, wm); err != nil {
		t.Fatal(err)
	}
	return vr
}

// checkServed multiplies vr through srv and checks the product against
// MulReference and the fingerprint against core.Fingerprint.
func checkServed(t *testing.T, srv *Server, vr *ValueRequest, wantHit bool) {
	t.Helper()
	a, b, x, err := vr.list.Supports()
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := srv.multiply(context.Background(), vr)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := matrix.NewSparse(vr.list.N, vr.opts.Ring), matrix.NewSparse(vr.list.N, vr.opts.Ring)
	k := 0
	for i := range a.N {
		for _, j := range a.Row(i) {
			ma.Set(i, int(j), vr.a[k])
			k++
		}
	}
	k = 0
	for i := range b.N {
		for _, j := range b.Row(i) {
			mb.Set(i, int(j), vr.b[k])
			k++
		}
	}
	if !matrix.Equal(resp.Product.Sparse(), matrix.MulReference(ma, mb, x)) {
		t.Fatal("wrong product")
	}
	fp, err := core.Fingerprint(a, b, x, vr.opts)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != fp || resp.CacheHit != wantHit {
		t.Fatalf("served under %s (hit %v), want %s (hit %v)", resp.Fingerprint, resp.CacheHit, fp, wantHit)
	}
}

// TestCacheShapeCollision forces every structure onto one shape hash: each
// still finds only its own plan, because a candidate serves only after its
// supports compare equal to the listing. The structures share n, ring,
// algorithm and resolved d, so only the cells tell them apart.
func TestCacheShapeCollision(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	srv.cache.shape = func(*core.Listing, core.Options) uint64 { return 42 }
	insts := []*graph.Instance{workload.Mixed(16, 3, 5), workload.Mixed(16, 3, 7), workload.Mixed(16, 3, 8)}
	for _, inst := range insts[1:] {
		if d, d0 := core.ResolveD(0, inst.Ahat, inst.Bhat, inst.Xhat), core.ResolveD(0, insts[0].Ahat, insts[0].Bhat, insts[0].Xhat); d != d0 {
			t.Fatalf("resolved d %d and %d: the structures differ in more than their cells", d, d0)
		}
	}
	for round := 0; round < 3; round++ {
		for k, inst := range insts {
			checkServed(t, srv, listedInstance(t, inst, int64(round*len(insts)+k)), round > 0)
		}
	}
	if got := len(srv.cache.shapes[42]); got != len(insts) {
		t.Fatalf("%d entries under the forced hash, want %d", got, len(insts))
	}
	m := srv.Metrics()
	if m[MetricCacheHits] != 6 || m[MetricCacheMisses] != 3 || m[MetricCompiles] != 3 {
		t.Fatalf("hits %d, misses %d, compiles %d; want 6, 3, 3", m[MetricCacheHits], m[MetricCacheMisses], m[MetricCompiles])
	}
	// A structure no entry holds misses though its hash is everyone's.
	if _, _, ok := srv.cache.Find(&listedInstance(t, workload.Mixed(16, 3, 6), 0).list, core.Options{Ring: ring.Counting{}}); ok {
		t.Fatal("an uncached structure was found")
	}
	// Options are part of the shape: the same structure under another d is
	// another plan.
	vr := listedInstance(t, insts[0], 0)
	vr.opts.D = 7
	if _, _, ok := srv.cache.Find(&vr.list, vr.opts); ok {
		t.Fatal("a plan was found under another d")
	}
}

// TestCacheShapeEviction: an evicted plan leaves the shape index, and its
// structure then misses and compiles again.
func TestCacheShapeEviction(t *testing.T) {
	for _, forced := range []bool{false, true} {
		srv := NewServer(Config{CacheSize: 1})
		if forced {
			srv.cache.shape = func(*core.Listing, core.Options) uint64 { return 1 }
		}
		first, second := listedInstance(t, workload.Blocks(16, 4), 1), listedInstance(t, workload.Mixed(16, 3, 5), 2)
		checkServed(t, srv, first, false)
		checkServed(t, srv, second, false) // evicts first
		if n := len(srv.cache.shapes); n != 1 {
			t.Fatalf("forced %v: %d shapes indexed for one cached plan", forced, n)
		}
		for _, es := range srv.cache.shapes {
			if len(es) != 1 || es[0].Value.(*cacheEntry).key != second.Fingerprint() {
				t.Fatalf("forced %v: the index holds %d entries, want only the second plan", forced, len(es))
			}
		}
		if _, _, ok := srv.cache.Find(&first.list, first.opts); ok {
			t.Fatalf("forced %v: an evicted plan was found", forced)
		}
		checkServed(t, srv, first, false)
		if c := srv.Metrics()[MetricCompiles]; c != 3 {
			t.Fatalf("forced %v: %d compiles, want 3", forced, c)
		}
		srv.Close()
	}
}

// TestCacheShapeFindsOtherTiers: a plan that entered memory from the store
// tier, or from a /v1/prepare compile, is found by a later value lane by
// comparison, under the fingerprint string core.Fingerprint gives.
func TestCacheShapeFindsOtherTiers(t *testing.T) {
	inst := workload.Mixed(20, 3, 4)
	opts := core.Options{Ring: ring.Counting{}}

	srv := NewServer(Config{})
	prep, err := srv.Prepare(context.Background(), &PrepareRequest{Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts); prep.Fingerprint != want {
		t.Fatalf("prepare fingerprint %s, want %s", prep.Fingerprint, want)
	}
	checkServed(t, srv, listedInstance(t, inst, 1), true)
	if m := srv.Metrics(); m[MetricCacheHits] != 1 || m[MetricCompiles] != 1 {
		t.Fatalf("after prepare then multiply: hits %d, compiles %d; want 1, 1", m[MetricCacheHits], m[MetricCompiles])
	}
	srv.Close()

	dir := t.TempDir()
	s1, _ := storeServer(t, dir)
	checkServed(t, s1, listedInstance(t, inst, 2), false)
	s1.Close() // drains the write-back
	s2, _ := storeServer(t, dir)
	defer s2.Close()
	checkServed(t, s2, listedInstance(t, inst, 3), true) // the store tier
	checkServed(t, s2, listedInstance(t, inst, 4), true) // found by comparison
	if m := s2.Metrics(); m[MetricCacheHits] != 1 || m[MetricCacheMisses] != 1 || m[MetricCompiles] != 0 {
		t.Fatalf("restarted: hits %d, misses %d, compiles %d; want 1, 1, 0", m[MetricCacheHits], m[MetricCacheMisses], m[MetricCompiles])
	}
}

// TestHitPathAllocs pins what a warm hit allocates at n=64, from the wire
// listing to the product's entries: list, find by comparison, multiply
// the values, append the entries. The listing, the lane slices and the
// output buffer are reused, and the pooled executor is configured in
// place, so what is left is the engine's per-call report: the Result, the
// core.Report around it and its RoundBytes copy, 3 allocations. Per-node
// loads are the plan's (NodeLoads) and are not copied. Rebuilding any one
// matrix costs at least three more (the matrix, its rows, its cells), which
// the bound does not cover.
func TestHitPathAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop executors")
	}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 1)
	r := ring.Counting{}
	wm := &wireMultiplyRequest{
		N: inst.N, Ring: "counting", Xhat: supportPositions(inst.Xhat),
		A: sparseEntries(matrix.Random(inst.Ahat, r, 1)), B: sparseEntries(matrix.Random(inst.Bhat, r, 2)),
	}
	srv := NewServer(Config{})
	defer srv.Close()
	var vr ValueRequest
	if err := ListWire(&vr, wm); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := srv.resolve(&vr.list, vr.opts); err != nil {
		t.Fatal(err)
	}
	as, bs, xs := make([][]ring.Value, 1), make([][]ring.Value, 1), [][]ring.Value{make([]ring.Value, vr.list.X.Len())}
	buf := make([]byte, 0, 64<<10)
	hit := func() {
		if err := ListWire(&vr, wm); err != nil {
			t.Fatal(err)
		}
		prep, _, ok := srv.cache.Find(&vr.list, vr.opts)
		if !ok {
			t.Fatal("warm structure missed")
		}
		as[0], bs[0] = vr.a, vr.b
		if _, err := prep.MultiplyValues(as, bs, xs, core.ExecOpts{}); err != nil {
			t.Fatal(err)
		}
		var err error
		if buf, err = (Product{Xhat: prep.Xhat(), Vals: xs[0], Ring: r}).AppendEntries(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	allocs := testing.AllocsPerRun(50, hit)
	t.Logf("warm hit at n=64: %.1f allocations", allocs)
	if allocs > hitPathAllocs {
		t.Fatalf("warm hit at n=64: %.1f allocations, want at most %d", allocs, hitPathAllocs)
	}
}

// hitPathAllocs bounds TestHitPathAllocs.
const hitPathAllocs = 3

// TestProductWriters: the bodies and entries written from product values
// are the bytes the struct writers give for the same product as a matrix.
func TestProductWriters(t *testing.T) {
	for _, tc := range []struct {
		r    ring.Semiring
		inst *graph.Instance
	}{
		{ring.Counting{}, workload.Blocks(16, 4)},
		{ring.MinPlus{}, workload.Mixed(20, 3, 2)},
		{ring.Real{}, workload.Instance(matrix.US, matrix.US, matrix.US, 32, 3, 4)},
	} {
		p := Product{Xhat: tc.inst.Xhat, Vals: make([]ring.Value, tc.inst.Xhat.NNZ), Ring: tc.r}
		for k := range p.Vals {
			if k%3 == 0 {
				p.Vals[k] = tc.r.Zero()
			} else {
				p.Vals[k] = float64(k) / 4
			}
		}
		x := p.Sparse()
		if x.NNZ() == 0 || p.Empty() {
			t.Fatalf("%s: product with %d entries", tc.r.Name(), x.NNZ())
		}
		report := wireMultiplyReport{Rounds: 3, Algorithm: "trivial", Fingerprint: "f", Cache: "hit"}
		want, err := (&wireMultiplyResponse{X: sparseEntries(x), wireMultiplyReport: report}).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendMultiplyBody(nil, p.AppendEntries, &report); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: body %s, %v; want %s", tc.r.Name(), got, err, want)
		}
		want, err = (&wireMultiplyBatchResponse{Lanes: [][]wireEntry{sparseEntries(x), sparseEntries(x)}, BatchLanes: 2, wireMultiplyReport: report}).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		lanes := func(b []byte) ([]byte, error) {
			return appendLanes(b, 2, func(b []byte, _ int) ([]byte, error) { return p.AppendEntries(b) })
		}
		if got, err := appendBatchBody(nil, lanes, 2, &report); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: batch body %s, %v; want %s", tc.r.Name(), got, err, want)
		}
		for k := range p.Vals {
			p.Vals[k] = tc.r.Zero()
		}
		if !p.Empty() || p.Sparse().NNZ() != 0 {
			t.Fatalf("%s: an all-zero product is not empty", tc.r.Name())
		}
		if got, _ := p.AppendEntries(nil); string(got) != "[]" {
			t.Fatalf("%s: an all-zero product appends %s", tc.r.Name(), got)
		}
	}
	// A value JSON cannot carry is refused, and nothing is appended.
	p := Product{Xhat: matrix.NewSupport(2, [][2]int{{0, 1}}), Vals: []ring.Value{math.NaN()}, Ring: ring.Real{}}
	if got, err := p.AppendEntries([]byte("x")); err == nil || string(got) != "x" {
		t.Fatalf("NaN product: %q, %v", got, err)
	}
}
