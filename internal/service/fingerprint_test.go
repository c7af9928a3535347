package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestRequestFingerprintMatchesServer is the routing invariant the shard
// tier stands on: the fingerprint a router computes from a request body —
// without building matrices or compiling — must equal the fingerprint the
// server keys its cache (and the shared plan store) by. If these ever
// diverge, requests are routed to shards that will never have the plan warm.
func TestRequestFingerprintMatchesServer(t *testing.T) {
	srv := NewServer(Config{CacheSize: 8})
	defer srv.Close()
	h := NewHandler(srv)
	r := ring.Counting{}
	inst := workload.Mixed(20, 3, 11)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	xpos := supportPositions(inst.Xhat)

	encode := func(v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	cases := []struct {
		path string
		body []byte
	}{
		{"/v1/multiply", encode(wireMultiplyRequest{
			N: inst.N, Ring: "counting", A: sparseEntries(a), B: sparseEntries(b), Xhat: xpos,
		})},
		{"/v1/multiply/batch", encode(wireMultiplyBatchRequest{
			N: inst.N, Ring: "counting", Xhat: xpos,
			Lanes: []wireValueLane{
				{A: sparseEntries(a), B: sparseEntries(b)},
				{A: sparseEntries(matrix.Random(inst.Ahat, r, 3)), B: sparseEntries(matrix.Random(inst.Bhat, r, 4))},
			},
		})},
		{"/v1/prepare", encode(wirePrepareRequest{
			N: inst.N, Ring: "counting",
			Ahat: supportPositions(inst.Ahat), Bhat: supportPositions(inst.Bhat), Xhat: xpos,
		})},
	}

	var want string
	for _, tc := range cases {
		routed, err := RequestFingerprint(tc.path, tc.body)
		if err != nil {
			t.Fatalf("RequestFingerprint(%s): %v", tc.path, err)
		}
		var raw json.RawMessage = tc.body
		rec := postJSON(t, h, tc.path, raw)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body)
		}
		var resp struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if resp.Fingerprint != routed {
			t.Fatalf("%s: server fingerprint %s, router computed %s", tc.path, resp.Fingerprint, routed)
		}
		// All three bodies describe the same structure over the same options,
		// so the router must map them all to the same shard.
		if want == "" {
			want = routed
		} else if routed != want {
			t.Fatalf("%s: fingerprint %s differs from multiply's %s", tc.path, routed, want)
		}
	}

	// Duplicate entries collapse the way Sparse.Set overwrites, so a body
	// with a repeated cell must not change the route.
	dup := wireMultiplyRequest{N: inst.N, Ring: "counting", A: sparseEntries(a), B: sparseEntries(b), Xhat: xpos}
	dup.A = append(dup.A, dup.A[0])
	got, err := RequestFingerprint("/v1/multiply", encode(dup))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("duplicate entry changed the fingerprint: %s vs %s", got, want)
	}

	// Malformed bodies must error (the router then lets the wire layer 400)
	// rather than route garbage.
	if _, err := RequestFingerprint("/v1/multiply", []byte("{")); err == nil {
		t.Fatal("truncated body fingerprinted")
	}
	if _, err := RequestFingerprint("/v1/multiply/batch", encode(wireMultiplyBatchRequest{N: 8})); err == nil {
		t.Fatal("laneless batch fingerprinted")
	}
	if _, err := RequestFingerprint("/v1/classify", []byte("{}")); err == nil {
		t.Fatal("non-routed path fingerprinted")
	}
	bad := wireMultiplyRequest{N: 4, A: []wireEntry{{9, 0, 1}}}
	if _, err := RequestFingerprint("/v1/multiply", encode(bad)); err == nil {
		t.Fatal("out-of-range index fingerprinted")
	}
}

// TestRequestFingerprintBadBodies is the regression suite for the routing
// seam's failure surface: every malformed, truncated or invalid body must
// come back as a typed ErrBadRequest — never a panic, never a fingerprint
// that would route a damaged request to a shard.
func TestRequestFingerprintBadBodies(t *testing.T) {
	valid := []byte(`{"n":4,"a":[[0,1,1]],"b":[[1,2,1]],"xhat":[[0,2]]}`)
	if _, err := RequestFingerprint("/v1/multiply", valid); err != nil {
		t.Fatalf("control body failed: %v", err)
	}

	cases := []struct {
		name string
		path string
		body []byte
	}{
		{"nil body", "/v1/multiply", nil},
		{"empty body", "/v1/multiply", []byte("")},
		{"not json", "/v1/multiply", []byte("not json at all")},
		{"wrong top-level type", "/v1/multiply", []byte(`[1,2,3]`)},
		{"truncated object", "/v1/multiply", []byte(`{"n":4,"a":[[0,`)},
		{"entry not an array", "/v1/multiply", []byte(`{"n":4,"a":[5],"b":[],"xhat":[]}`)},
		{"fractional index", "/v1/multiply", []byte(`{"n":4,"a":[[0.5,1,1]],"b":[],"xhat":[]}`)},
		{"negative index", "/v1/multiply", []byte(`{"n":4,"a":[[-1,0,1]],"b":[],"xhat":[]}`)},
		{"index out of range", "/v1/multiply", []byte(`{"n":4,"a":[[4,0,1]],"b":[],"xhat":[]}`)},
		{"unknown ring", "/v1/multiply", []byte(`{"n":4,"ring":"octonion","a":[],"b":[],"xhat":[]}`)},
		{"batch truncated", "/v1/multiply/batch", []byte(`{"n":4,"lanes":[{"a":`)},
		{"batch without lanes", "/v1/multiply/batch", []byte(`{"n":4,"xhat":[]}`)},
		{"prepare truncated", "/v1/prepare", []byte(`{"n":4,"ahat"`)},
		{"prepare bad position", "/v1/prepare", []byte(`{"n":4,"ahat":[[7,0]],"bhat":[],"xhat":[]}`)},
		{"unrouted path", "/v1/classify", []byte(`{}`)},
		{"empty path", "", valid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp, err := RequestFingerprint(tc.path, tc.body)
			if err == nil {
				t.Fatalf("fingerprinted as %q, want an error", fp)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("error %v is not ErrBadRequest", err)
			}
			if fp != "" {
				t.Fatalf("error case returned a fingerprint %q", fp)
			}
		})
	}
}
