package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/workload"
)

// The /v1/multiply handler scans into pooled requests whose slices it
// appends into. These tests send a large request first, so the struct the
// next request gets holds long slices, and then demand that every answer is
// the one a freshly decoded body gets.

func postMultiply(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
	return rec
}

// productError reports how the handler's answer to body differs from the
// one a fresh wireMultiplyRequest decodes it to, or nil.
func productError(h http.Handler, body []byte) error { return answerError(h, body, body) }

// answerError reports how the handler's answer to body differs from the
// answer to same, or nil: MulReference of the values a fresh
// wireMultiplyRequest decodes same to, under the fingerprint of their
// structure.
func answerError(h http.Handler, body, same []byte) error {
	var wm wireMultiplyRequest
	if err := DecodeWireMultiply(same, &wm); err != nil {
		return fmt.Errorf("fresh decode: %w", err)
	}
	req, err := ParseWireMultiply(&wm)
	if err != nil {
		return fmt.Errorf("fresh parse: %w", err)
	}
	want := matrix.MulReference(req.A, req.B, req.Xhat)
	fp, err := core.Fingerprint(req.A.Support(), req.B.Support(), req.Xhat, req.Options)
	if err != nil {
		return err
	}
	rec := postMultiply(h, body)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	var resp wireMultiplyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	got, err := buildSparse(want.N, want.R, resp.X, "x")
	if err != nil {
		return err
	}
	if !matrix.Equal(got, want) {
		return fmt.Errorf("product differs from a fresh decode's")
	}
	if resp.Fingerprint != fp {
		return fmt.Errorf("served under fingerprint %s, a fresh decode has %s", resp.Fingerprint, fp)
	}
	return nil
}

// poolBody is a multiply body over inst with value seed s, in ring rn.
func poolBody(t testing.TB, inst *graph.Instance, rn string, s int64) []byte {
	t.Helper()
	r, err := resolveRing(rn)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&wireMultiplyRequest{
		N: inst.N, Ring: rn, Xhat: supportPositions(inst.Xhat),
		A: sparseEntries(matrix.Random(inst.Ahat, r, 2*s+1)), B: sparseEntries(matrix.Random(inst.Bhat, r, 2*s+2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestHTTPMultiplyPooledScan(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	h := NewHandler(srv)
	large := poolBody(t, workload.Instance(matrix.US, matrix.US, matrix.US, 128, 4, 5), "counting", 1)
	inst := workload.Blocks(16, 4)
	small := poolBody(t, inst, "counting", 2)
	var parts map[string]json.RawMessage
	if err := json.Unmarshal(small, &parts); err != nil {
		t.Fatal(err)
	}
	object := func(fields ...string) []byte {
		return []byte("{" + strings.Join(fields, ",") + "}")
	}
	field := func(key string, value []byte) string { return fmt.Sprintf("%q:%s", key, value) }
	dense := make([]wireEntry, 0, inst.N*inst.N)
	for i := 0; i < inst.N; i++ {
		for j := 0; j < inst.N; j++ {
			dense = append(dense, wireEntry{float64(i), float64(j), 1})
		}
	}
	denseB, err := json.Marshal(dense)
	if err != nil {
		t.Fatal(err)
	}

	// Every case follows a large request and must be answered as the body
	// same is; over the cap is checked on its own below.
	for _, tc := range []struct {
		name       string
		body, same []byte
	}{
		{"omits a", object(field("n", parts["n"]), field("ring", parts["ring"]), field("b", parts["b"]), field("xhat", parts["xhat"])),
			object(field("n", parts["n"]), field("ring", parts["ring"]), field("a", []byte("[]")), field("b", parts["b"]), field("xhat", parts["xhat"]))},
		// The last "b" wins: appending it to the first would add every position.
		{"repeats b", object(field("n", parts["n"]), field("ring", parts["ring"]), field("a", parts["a"]),
			field("b", denseB), field("b", parts["b"]), field("xhat", parts["xhat"])), small},
		{"good", small, small},
	} {
		if err := productError(h, large); err != nil {
			t.Fatalf("large request before %q: %v", tc.name, err)
		}
		if err := answerError(h, tc.body, tc.same); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}

	// A body that fails in the middle of an entry is a 400, and the next
	// request is answered as if it had never been scanned.
	if err := productError(h, large); err != nil {
		t.Fatal(err)
	}
	broken := append(bytes.Clone(small[:bytes.Index(small, []byte(`"b":`))]), `"b":[[0,0,1],[0,1,`...)
	if rec := postMultiply(h, broken); rec.Code != http.StatusBadRequest {
		t.Fatalf("body cut inside an entry: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if err := productError(h, small); err != nil {
		t.Fatalf("after a failed scan: %v", err)
	}

	// Over the cap, two ways: 50,000 writes of one cell hold 1.2 MB of
	// entries; 307,200 X̂ positions around one A and one B cell list 1.2 MB
	// of structure. Each answer is right, the request is not kept, and the
	// next one is right.
	var xhat strings.Builder
	for i := 0; i < 300; i++ {
		for j := 0; j < 1024; j++ {
			fmt.Fprintf(&xhat, "[%d,%d],", i, j)
		}
	}
	for _, tc := range []struct{ name, body string }{
		{"entries", fmt.Sprintf(`{"n":%d,"ring":"counting","a":[%s],"b":%s,"xhat":%s}`,
			inst.N, strings.Repeat("[0,0,1],", 49_999)+"[0,0,1]", parts["b"], parts["xhat"])},
		{"xhat", fmt.Sprintf(`{"n":1024,"ring":"counting","a":[[0,0,1]],"b":[[0,0,1]],"xhat":[%s]}`,
			strings.TrimSuffix(xhat.String(), ","))},
	} {
		if err := productError(h, []byte(tc.body)); err != nil {
			t.Fatalf("%s over the pool cap: %v", tc.name, err)
		}
		for i := 0; i < 64; i++ {
			m := multiplyPool.Get().(*pooledMultiply)
			held := heldBytes(&m.wire)
			if held > maxPooledBody {
				t.Fatalf("%s: the pool kept a request holding %d bytes, over the %d cap", tc.name, held, maxPooledBody)
			}
			listed := (cap(m.vals.a)+cap(m.vals.b))*8 + m.vals.list.HeldBytes()
			if listed > maxPooledBody {
				t.Fatalf("%s: the pool kept a listing holding %d bytes, over the %d cap", tc.name, listed, maxPooledBody)
			}
			if held+listed == 0 {
				break // a fresh one: the pool is drained
			}
		}
		if err := productError(h, small); err != nil {
			t.Fatalf("after %s over the pool cap: %v", tc.name, err)
		}
	}
}

// TestHTTPMultiplyPooledHammer sends requests of mixed structures, sizes and
// rings from several goroutines at once, so pooled requests, and the product
// buffers they keep, pass between shapes: every product must equal
// MulReference of its own values.
func TestHTTPMultiplyPooledHammer(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	h := NewHandler(srv)
	type shape struct {
		inst *graph.Instance
		ring string
	}
	shapes := []shape{
		{workload.Instance(matrix.US, matrix.US, matrix.US, 96, 4, 3), "counting"},
		{workload.Blocks(16, 4), "gfp"},
		{workload.Mixed(24, 3, 7), "minplus"},
		{workload.PowerLaw(32, 3, 9), "boolean"},
	}
	const workers, each = 6, 12
	bodies := make([][]byte, workers*each)
	for k := range bodies {
		sh := shapes[k%len(shapes)]
		bodies[k] = poolBody(t, sh.inst, sh.ring, int64(k))
	}
	errs := make(chan error, len(bodies))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := w*each + i
				if err := productError(h, bodies[k]); err != nil {
					errs <- fmt.Errorf("request %d: %w", k, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkHandleMultiplyHit is one POST /v1/multiply of the canonical edge
// request over a real local connection to a warm cache: the handler's
// decode, fingerprint, lookup, multiply and encode, plus the client's
// transport.
func BenchmarkHandleMultiplyHit(b *testing.B) {
	srv := NewServer(Config{})
	defer srv.Close()
	web := httptest.NewServer(NewHandler(srv))
	defer web.Close()
	body := canonicalBody(b)
	post := func() error {
		resp, err := web.Client().Post(web.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // compiles the plan
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSlabPoolAllocs pins the recycling of a submitted lane's slab: a warm
// get-and-recycle cycle allocates nothing, a recycled slab comes back cut
// to the next lane's length, one too short for it is not handed out, and a
// second Recycle of one response does not hand its slab out twice.
func TestSlabPoolAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop slabs")
	}
	resp := &MultiplyResponse{}
	cycle := func() {
		resp.slab = getSlab(700)
		resp.Recycle()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm slab cycle allocates %v times, want 0", allocs)
	}
	resp.slab = getSlab(700)
	held := resp.slab
	resp.Recycle()
	resp.Recycle()
	if p := getSlab(600); p != held || len(*p) != 600 {
		t.Fatalf("the recycled slab did not come back cut to 600 values (len %d)", len(*p))
	}
	if p := getSlab(600); p == held {
		t.Fatal("a response recycled twice handed its slab out twice")
	}
	resp.slab = held
	resp.Recycle()
	if p := getSlab(701); p == held || len(*p) != 701 {
		t.Fatalf("a slab of 700 values served a lane of 701 (len %d)", len(*p))
	}
}
