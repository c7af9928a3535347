package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getJSON(t *testing.T, h http.Handler, path string, into any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func supportPositions(s *matrix.Support) []wirePos {
	var out []wirePos
	for i := range s.N {
		for _, j := range s.Row(i) {
			out = append(out, wirePos{i, int(j)})
		}
	}
	return out
}

// TestHTTPEndToEnd drives the acceptance scenario over the wire: the first
// /v1/multiply compiles and caches, the second — same structure, different
// values — is a cache hit (visible in /metrics), returns the correct product
// and reports the identical round count.
func TestHTTPEndToEnd(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	h := NewHandler(srv)
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	xpos := supportPositions(inst.Xhat)

	var rounds [2]int
	var fps [2]string
	for i := 0; i < 2; i++ {
		a := matrix.Random(inst.Ahat, r, int64(10*i+1))
		b := matrix.Random(inst.Bhat, r, int64(10*i+2))
		rec := postJSON(t, h, "/v1/multiply", wireMultiplyRequest{
			N: inst.N, Ring: "counting",
			A: sparseEntries(a), B: sparseEntries(b), Xhat: xpos,
			Trace: i == 1,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("multiply %d: status %d: %s", i+1, rec.Code, rec.Body)
		}
		var resp wireMultiplyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		wantCache := "miss"
		if i == 1 {
			wantCache = "hit"
		}
		if resp.Cache != wantCache {
			t.Errorf("request %d: cache %q, want %q", i+1, resp.Cache, wantCache)
		}
		got, err := buildSparse(inst.N, r, resp.X, "x")
		if err != nil {
			t.Fatal(err)
		}
		if want := matrix.MulReference(a, b, inst.Xhat); !matrix.Equal(got, want) {
			t.Errorf("request %d: wrong product", i+1)
		}
		if i == 1 {
			if resp.Profile == nil {
				t.Error("trace requested but no profile in response")
			} else if resp.Profile.Rounds != resp.Rounds {
				t.Errorf("profile rounds %d != response rounds %d", resp.Profile.Rounds, resp.Rounds)
			}
		} else if resp.Profile != nil {
			t.Error("profile returned without trace")
		}
		rounds[i], fps[i] = resp.Rounds, resp.Fingerprint
	}
	if rounds[0] != rounds[1] {
		t.Errorf("rounds differ across one cached plan: %d vs %d", rounds[0], rounds[1])
	}
	if fps[0] != fps[1] || fps[0] == "" {
		t.Errorf("fingerprints %q vs %q, want equal and nonempty", fps[0], fps[1])
	}

	var metrics map[string]int64
	getJSON(t, h, "/metrics", &metrics)
	if metrics[MetricCacheHits] != 1 || metrics[MetricCacheMisses] != 1 {
		t.Errorf("/metrics = %v, want 1 hit / 1 miss", metrics)
	}
	if metrics[MetricServed] != 2 {
		t.Errorf("served = %d, want 2", metrics[MetricServed])
	}

	var health map[string]string
	getJSON(t, h, "/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}
}

// TestHTTPPrepareAndClassify exercises the structure-only endpoints and
// checks prepare warms the cache used by multiply.
func TestHTTPPrepareAndClassify(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	h := NewHandler(srv)
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)

	rec := postJSON(t, h, "/v1/prepare", wirePrepareRequest{
		N: inst.N, Ring: "counting",
		Ahat: supportPositions(inst.Ahat), Bhat: supportPositions(inst.Bhat), Xhat: supportPositions(inst.Xhat),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", rec.Code, rec.Body)
	}
	var prep wirePrepareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Cache != "miss" || prep.Fingerprint == "" || prep.Band == "" {
		t.Errorf("prepare response %+v", prep)
	}

	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	rec = postJSON(t, h, "/v1/multiply", wireMultiplyRequest{
		N: inst.N, Ring: "counting",
		A: sparseEntries(a), B: sparseEntries(b), Xhat: supportPositions(inst.Xhat),
	})
	var mul wireMultiplyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mul); err != nil {
		t.Fatal(err)
	}
	if mul.Cache != "hit" || mul.Fingerprint != prep.Fingerprint {
		t.Errorf("multiply after prepare: cache %q fingerprint match %v", mul.Cache, mul.Fingerprint == prep.Fingerprint)
	}

	rec = postJSON(t, h, "/v1/classify", wireClassifyRequest{
		N:    inst.N,
		Ahat: supportPositions(inst.Ahat), Bhat: supportPositions(inst.Bhat), Xhat: supportPositions(inst.Xhat),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("classify: status %d: %s", rec.Code, rec.Body)
	}
	var cls wireClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cls); err != nil {
		t.Fatal(err)
	}
	if cls.Band != prep.Band || cls.D != prep.D || cls.Upper == "" {
		t.Errorf("classify %+v disagrees with prepare %+v", cls, prep)
	}
}

// TestHTTPBadInput checks wire-level validation and status mapping.
func TestHTTPBadInput(t *testing.T) {
	h := NewHandler(NewServer(Config{}))

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown ring", wireMultiplyRequest{N: 4, Ring: "quaternion"}, http.StatusBadRequest},
		{"zero n", wireMultiplyRequest{N: 0}, http.StatusBadRequest},
		{"huge n", wireMultiplyRequest{N: maxWireN + 1}, http.StatusBadRequest},
		{"index out of range", wireMultiplyRequest{N: 4, A: []wireEntry{{9, 0, 1}}}, http.StatusBadRequest},
		{"fractional index", wireMultiplyRequest{N: 4, A: []wireEntry{{0.5, 0, 1}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"n": 4, "bogus": true}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := postJSON(t, h, "/v1/multiply", tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}

	// Support position validation on the structure endpoints.
	if rec := postJSON(t, h, "/v1/classify", wireClassifyRequest{N: 4, Ahat: []wirePos{{4, 0}}}); rec.Code != http.StatusBadRequest {
		t.Errorf("classify bad position: status %d", rec.Code)
	}

	// Method mismatch on a registered pattern.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/multiply", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/multiply: status %d, want 405", rec.Code)
	}
}

// TestHTTPMultiplyBatch drives POST /v1/multiply/batch over the wire: k
// same-structure lanes come back as k correct products with one shared
// batch report, and a mixed-structure batch is a 400.
func TestHTTPMultiplyBatch(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	h := NewHandler(srv)
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	xpos := supportPositions(inst.Xhat)

	const k = 3
	lanes := make([]wireValueLane, k)
	as := make([]*matrix.Sparse, k)
	bs := make([]*matrix.Sparse, k)
	for i := 0; i < k; i++ {
		as[i] = matrix.Random(inst.Ahat, r, int64(40*i+1))
		bs[i] = matrix.Random(inst.Bhat, r, int64(40*i+2))
		lanes[i] = wireValueLane{A: sparseEntries(as[i]), B: sparseEntries(bs[i])}
	}
	rec := postJSON(t, h, "/v1/multiply/batch", wireMultiplyBatchRequest{
		N: inst.N, Ring: "counting", Lanes: lanes, Xhat: xpos, Trace: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch multiply: status %d: %s", rec.Code, rec.Body)
	}
	var resp wireMultiplyBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.BatchLanes != k || len(resp.Lanes) != k {
		t.Fatalf("batch_lanes=%d len(lanes)=%d, want %d", resp.BatchLanes, len(resp.Lanes), k)
	}
	if resp.Profile == nil {
		t.Error("trace requested but no profile in response")
	}
	for i := 0; i < k; i++ {
		got, err := buildSparse(inst.N, r, resp.Lanes[i], "x")
		if err != nil {
			t.Fatal(err)
		}
		if want := matrix.MulReference(as[i], bs[i], inst.Xhat); !matrix.Equal(got, want) {
			t.Errorf("lane %d: wrong product", i)
		}
	}

	// A lane with a different structure must be rejected as the caller's
	// error, not served or crashed on.
	other := workload.Blocks(32, 4)
	bad := append([]wireValueLane{}, lanes...)
	bad[1] = wireValueLane{
		A: sparseEntries(matrix.Random(other.Ahat, r, 1)),
		B: sparseEntries(matrix.Random(other.Bhat, r, 2)),
	}
	rec = postJSON(t, h, "/v1/multiply/batch", wireMultiplyBatchRequest{
		N: inst.N, Ring: "counting", Lanes: bad, Xhat: xpos,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("mixed-structure batch: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// reencode decodes a response body into v and encodes it again with
// json.Encoder: the bytes writeJSON wrote for the same value.
func reencode(t *testing.T, body []byte, v any) []byte {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPMultiplyBodiesMatchEncodingJSON pins the success bodies of
// /v1/multiply and /v1/multiply/batch, written by the wire appenders, to
// encoding/json's bytes for the same response — integral and fractional
// products, with and without a profile, the trailing newline included.
func TestHTTPMultiplyBodiesMatchEncodingJSON(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	h := NewHandler(srv)
	inst := workload.Blocks(16, 4)
	xpos := supportPositions(inst.Xhat)
	for _, rn := range []string{"counting", "real"} {
		r, err := resolveRing(rn)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			a := matrix.Random(inst.Ahat, r, 1)
			b := matrix.Random(inst.Bhat, r, 2)
			if rn == "real" {
				// Fractional products, some under 1e-6: the 'e' form.
				for _, row := range a.Rows {
					for k := range row {
						row[k].Val /= 3
					}
				}
				for i, row := range b.Rows {
					for k := range row {
						row[k].Val *= math.Pow(10, -float64(i%9))
					}
				}
			}
			rec := postJSON(t, h, "/v1/multiply", wireMultiplyRequest{
				N: inst.N, Ring: rn, A: sparseEntries(a), B: sparseEntries(b), Xhat: xpos, Trace: trace,
			})
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s multiply: status %d %q: %s", rn, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
			}
			if want := reencode(t, rec.Body.Bytes(), new(wireMultiplyResponse)); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s multiply (trace %v) body\n%s\nencoding/json\n%s", rn, trace, rec.Body, want)
			}

			lanes := []wireValueLane{
				{A: sparseEntries(a), B: sparseEntries(b)},
				{A: sparseEntries(matrix.Random(inst.Ahat, r, 3)), B: sparseEntries(matrix.Random(inst.Bhat, r, 4))},
			}
			rec = postJSON(t, h, "/v1/multiply/batch", wireMultiplyBatchRequest{
				N: inst.N, Ring: rn, Lanes: lanes, Xhat: xpos, Trace: trace,
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("%s batch: status %d: %s", rn, rec.Code, rec.Body)
			}
			if want := reencode(t, rec.Body.Bytes(), new(wireMultiplyBatchResponse)); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s batch (trace %v) body\n%s\nencoding/json\n%s", rn, trace, rec.Body, want)
			}
		}
	}
}

// TestHTTPNonFiniteProduct pins the answer to a product JSON cannot carry:
// 1e308·1e308 − 1e308·1e308 is +Inf + −Inf = NaN, and the response is a 500
// naming it, not a 200 with an empty body.
func TestHTTPNonFiniteProduct(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	rec := postJSON(t, NewHandler(srv), "/v1/multiply", wireMultiplyRequest{
		N: 2, A: []wireEntry{{0, 0, 1e308}, {0, 1, -1e308}}, B: []wireEntry{{0, 0, 1e308}, {1, 0, 1e308}},
		Xhat: []wirePos{{0, 0}},
	})
	var body wireError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		body.Error != "json: unsupported value: NaN" {
		t.Fatalf("status %d, body %q: want 500 with the unsupported value named", rec.Code, rec.Body)
	}
}

// TestHTTPOverloadSetsRetryAfter pins the shed contract on the wire: an
// ErrOverloaded surfaces as 503 WITH a Retry-After header, so shedding
// turns client retry storms into backoff instead of an immediate hammer.
func TestHTTPOverloadSetsRetryAfter(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4, BatchSize: 4, BatchDelay: time.Millisecond})
	h := NewHandler(srv)
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	body := wireMultiplyRequest{
		N: inst.N, Ring: "counting",
		A: sparseEntries(a), B: sparseEntries(b), Xhat: supportPositions(inst.Xhat),
	}
	// A closed server sheds every batched request — the deterministic way to
	// get ErrOverloaded over HTTP.
	srv.Close()
	rec := postJSON(t, h, "/v1/multiply", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}
