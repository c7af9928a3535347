package service

import (
	"encoding/json"
	"errors"
	"math/rand"
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

	// Bodies the listing takes directly, and bodies it builds first: cells
	// shuffled, a cell written twice, an explicit zero over an empty cell
	// (the same structure) and over a stored one (another structure).
	entries := func(m *matrix.Sparse) []wireEntry { return sparseEntries(m) }
	shuffled := func(es []wireEntry) []wireEntry {
		out := append([]wireEntry(nil), es...)
		rand.New(rand.NewSource(int64(len(es)))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	free := wireEntry{}
	for i := 0; i < inst.N && free[2] == 0; i++ {
		for j := 0; j < inst.N; j++ {
			if a.Get(i, j) == 0 {
				free = wireEntry{float64(i), float64(j), 1}
				break
			}
		}
	}
	free[2] = 0
	dupA := append(entries(a), entries(a)[0])
	zeroFree := append(entries(a), free)
	zeroStored := append(entries(a), wireEntry{entries(a)[0][0], entries(a)[0][1], 0})
	multiply := func(as, bs []wireEntry, xs []wirePos) []byte {
		return encode(wireMultiplyRequest{N: inst.N, Ring: "counting", A: as, B: bs, Xhat: xs})
	}
	batch := func(lanes ...wireValueLane) []byte {
		return encode(wireMultiplyBatchRequest{N: inst.N, Ring: "counting", Xhat: shuffledPos(xpos), Lanes: lanes})
	}
	cases := []struct {
		name, path string
		body       []byte
		other      bool // a different structure from the rest
	}{
		{"multiply", "/v1/multiply", multiply(entries(a), entries(b), xpos), false},
		{"batch", "/v1/multiply/batch", encode(wireMultiplyBatchRequest{
			N: inst.N, Ring: "counting", Xhat: xpos,
			Lanes: []wireValueLane{
				{A: sparseEntries(a), B: sparseEntries(b)},
				{A: sparseEntries(matrix.Random(inst.Ahat, r, 3)), B: sparseEntries(matrix.Random(inst.Bhat, r, 4))},
			},
		}), false},
		{"prepare", "/v1/prepare", encode(wirePrepareRequest{
			N: inst.N, Ring: "counting",
			Ahat: supportPositions(inst.Ahat), Bhat: supportPositions(inst.Bhat), Xhat: xpos,
		}), false},
		{"shuffled multiply", "/v1/multiply", multiply(shuffled(entries(a)), shuffled(entries(b)), shuffledPos(xpos)), false},
		{"duplicate cell", "/v1/multiply", multiply(dupA, entries(b), xpos), false},
		{"zero over an empty cell", "/v1/multiply", multiply(zeroFree, entries(b), xpos), false},
		{"zero over a stored cell", "/v1/multiply", multiply(zeroStored, entries(b), xpos), true},
		{"shuffled batch", "/v1/multiply/batch", batch(
			wireValueLane{A: shuffled(entries(a)), B: entries(b)},
			wireValueLane{A: dupA, B: shuffled(entries(b))},
			wireValueLane{A: zeroFree, B: entries(b)},
		), false},
		{"shuffled prepare", "/v1/prepare", encode(wirePrepareRequest{
			N: inst.N, Ring: "counting",
			Ahat: shuffledPos(supportPositions(inst.Ahat)), Bhat: supportPositions(inst.Bhat), Xhat: append(xpos, xpos[0]),
		}), false},
	}

	var want string
	for _, tc := range cases {
		routed, err := RequestFingerprint(tc.path, tc.body)
		if err != nil {
			t.Fatalf("RequestFingerprint(%s): %v", tc.name, err)
		}
		var raw json.RawMessage = tc.body
		rec := postJSON(t, h, tc.path, raw)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		var resp struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Fingerprint != routed {
			t.Fatalf("%s: server fingerprint %s, router computed %s", tc.name, resp.Fingerprint, routed)
		}
		// Every other body describes the same structure over the same
		// options, so the router must map them all to the same shard.
		switch {
		case want == "":
			want = routed
		case routed == want && tc.other:
			t.Fatalf("%s: a different structure kept the fingerprint %s", tc.name, routed)
		case routed != want && !tc.other:
			t.Fatalf("%s: fingerprint %s differs from multiply's %s", tc.name, routed, want)
		}
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

// shuffledPos returns the positions in another order.
func shuffledPos(ps []wirePos) []wirePos {
	out := append([]wirePos(nil), ps...)
	rand.New(rand.NewSource(int64(len(ps)))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
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
