package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lbmm/internal/chaos"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// testShard is one full shard as `lbmm serve -ring` assembles it: a
// service.Server over the SHARED plan store directory, fronted by a Router
// whose Node speaks the membership protocol — all behind one httptest
// listener.
type testShard struct {
	id     string
	node   *Node
	server *service.Server
	srv    *httptest.Server
	ms     *obsv.CounterSet
}

func newTestShard(t *testing.T, id, storeDir string) *testShard {
	t.Helper()
	ms := obsv.NewCounterSet()
	st, err := planstore.Open(storeDir, 0, ms)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	server := service.NewServer(service.Config{Workers: 2, Metrics: ms, Store: st})
	hs := httptest.NewUnstartedServer(nil)
	node := NewNode(Config{
		ID:             id,
		Addr:           hs.Listener.Addr().String(),
		HeartbeatEvery: 15 * time.Millisecond,
		PingTimeout:    250 * time.Millisecond,
		SuspectAfter:   2,
		Metrics:        ms,
		Logf:           t.Logf,
	})
	hs.Config.Handler = NewRouter(node, service.NewHandler(server), nil, ms).Handler()
	hs.Start()
	sh := &testShard{id: id, node: node, server: server, srv: hs, ms: ms}
	t.Cleanup(sh.kill)
	return sh
}

// kill simulates a SIGKILL: the process vanishes without announcing a leave.
func (sh *testShard) kill() {
	sh.node.Stop()
	sh.srv.Close()
	sh.server.Close()
}

func shardsConverged(shards []*testShard, ids ...string) bool {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, sh := range shards {
		v := sh.node.View()
		if len(v.Members) != len(ids) {
			return false
		}
		for _, m := range v.Members {
			if !want[m.ID] {
				return false
			}
		}
	}
	return true
}

// multiplyBody builds a /v1/multiply wire body over the counting ring for a
// workload instance, the way `lbmm plans prewarm -o` emits one.
func multiplyBody(t *testing.T, inst *graph.Instance) []byte {
	t.Helper()
	r := ring.Counting{}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	cells := func(m *matrix.Sparse) [][3]float64 {
		out := make([][3]float64, 0, m.NNZ())
		for i, row := range m.Rows {
			for _, c := range row {
				out = append(out, [3]float64{float64(i), float64(c.Col), c.Val})
			}
		}
		return out
	}
	xhat := make([][2]int, 0, inst.Xhat.NNZ)
	for i, row := range inst.Xhat.Rows {
		for _, j := range row {
			xhat = append(xhat, [2]int{i, int(j)})
		}
	}
	body, err := json.Marshal(struct {
		N    int          `json:"n"`
		Ring string       `json:"ring"`
		A    [][3]float64 `json:"a"`
		B    [][3]float64 `json:"b"`
		Xhat [][2]int     `json:"xhat"`
	}{N: inst.N, Ring: "counting", A: cells(a), B: cells(b), Xhat: xhat})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postMultiply(t *testing.T, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded map[string]any
	_ = json.Unmarshal(raw, &decoded)
	return resp, decoded
}

// TestFailoverServesStoredPlansWithoutRecompiling is the tier's headline
// promise (ISSUE 7): all shards share one plan store, so killing the owner
// of a plan rebalances its keys to survivors that warm-load the stored entry
// — the failover costs zero recompiles. The victim is picked by a seeded
// chaos.Drill, the same schedule the CI drill uses.
func TestFailoverServesStoredPlansWithoutRecompiling(t *testing.T) {
	dir := t.TempDir()
	shards := []*testShard{
		newTestShard(t, "fo-a", dir),
		newTestShard(t, "fo-b", dir),
		newTestShard(t, "fo-c", dir),
	}
	if err := shards[0].node.Start(""); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards[1:] {
		if err := sh.node.Start(shards[0].node.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "3-shard convergence", func() bool {
		return shardsConverged(shards, "fo-a", "fo-b", "fo-c")
	})

	// Warm the shared store with distinct structures, all posted to shard 0:
	// the router forwards each to its owner, which compiles once and writes
	// the plan back to the shared directory.
	const nStructs = 4
	bodies := make([][]byte, nStructs)
	fings := make([]string, nStructs)
	for i := range bodies {
		inst := workload.Mixed(24, 3, int64(100+i))
		bodies[i] = multiplyBody(t, inst)
		fp, err := service.RequestFingerprint("/v1/multiply", bodies[i])
		if err != nil {
			t.Fatalf("fingerprint structure %d: %v", i, err)
		}
		fings[i] = fp
		resp, decoded := postMultiply(t, shards[0].srv.URL, bodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm multiply %d: %s (%v)", i, resp.Status, decoded["error"])
		}
		owner, _ := shards[0].node.Owner(fp)
		if got := resp.Header.Get(ShardHeader); got != owner.ID {
			t.Fatalf("structure %d executed on %s, owner is %s", i, got, owner.ID)
		}
		if got := decoded["fingerprint"]; got != fp {
			t.Fatalf("structure %d: server fingerprint %v, router computed %s", i, got, fp)
		}
	}

	// Every structure compiled exactly once somewhere; wait for the async
	// write-backs so the store holds all plans before the drill strikes.
	probe, err := planstore.Open(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "plan write-backs", func() bool {
		entries, err := probe.List()
		return err == nil && len(entries) == nStructs
	})
	var compiled int64
	for _, sh := range shards {
		compiled += sh.ms.Get(service.MetricCompiles)
	}
	if compiled != nStructs {
		t.Fatalf("warm phase compiled %d plans, want %d (one per structure)", compiled, nStructs)
	}

	// The drill picks which plan's owner dies.
	si := chaos.Drill{Seed: 42}.Victim(0, nStructs)
	victimMember, _ := shards[0].node.Owner(fings[si])
	var victim *testShard
	var survivors []*testShard
	for _, sh := range shards {
		if sh.id == victimMember.ID {
			victim = sh
		} else {
			survivors = append(survivors, sh)
		}
	}
	preCompiles := survivors[0].ms.Get(service.MetricCompiles) + survivors[1].ms.Get(service.MetricCompiles)
	t.Logf("drill kills %s, owner of structure %d (%s)", victim.id, si, fings[si])
	victim.kill()

	// Request the orphaned plan through a survivor immediately: whether the
	// failure detector has noticed yet or not, the request must succeed —
	// forwarding falls back to local serving on transport failure.
	resp, decoded := postMultiply(t, survivors[0].srv.URL, bodies[si])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply during failover: %s (%v)", resp.Status, decoded["error"])
	}

	waitFor(t, "survivors converge on 2 members", func() bool {
		return shardsConverged(survivors, survivors[0].id, survivors[1].id)
	})
	if owner, ok := survivors[0].node.Owner(fings[si]); !ok || owner.ID == victim.id {
		t.Fatalf("orphaned plan still owned by dead %s", victim.id)
	}
	if rebal := survivors[0].ms.Get(MetricRebalances); rebal < 1 {
		t.Fatalf("survivor adopted no rebalance (%d)", rebal)
	}

	// Replay every structure against both survivors: all served, and the
	// compile counters have not moved — every plan came out of the shared
	// store or the in-memory cache, never the compiler.
	for _, sh := range survivors {
		for i, body := range bodies {
			resp, decoded := postMultiply(t, sh.srv.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-failover multiply %d on %s: %s (%v)", i, sh.id, resp.Status, decoded["error"])
			}
		}
	}
	postCompiles := survivors[0].ms.Get(service.MetricCompiles) + survivors[1].ms.Get(service.MetricCompiles)
	if postCompiles != preCompiles {
		t.Fatalf("failover recompiled stored plans: survivor compiles %d -> %d", preCompiles, postCompiles)
	}
}

// TestRouterForwardsAndFallsBack pins the router's three behaviors in
// isolation: forwarded requests execute on the owner, a marked request whose
// receiver disagrees about ownership is served where it landed (loop
// prevention), and a dead owner degrades to local service instead of an
// error.
func TestRouterForwardsAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	a := newTestShard(t, "rt-a", dir)
	b := newTestShard(t, "rt-b", dir)
	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	if err := b.node.Start(a.node.Self().Addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "2-shard convergence", func() bool {
		return shardsConverged([]*testShard{a, b}, "rt-a", "rt-b")
	})

	// Find a structure owned by b, post it to a: it must be forwarded.
	var body []byte
	var fp string
	for seed := int64(0); ; seed++ {
		inst := workload.Mixed(16, 2, 500+seed)
		cand := multiplyBody(t, inst)
		cfp, err := service.RequestFingerprint("/v1/multiply", cand)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := a.node.Owner(cfp); owner.ID == "rt-b" {
			body, fp = cand, cfp
			break
		}
	}
	resp, decoded := postMultiply(t, a.srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded multiply: %s (%v)", resp.Status, decoded["error"])
	}
	if got := resp.Header.Get(ShardHeader); got != "rt-b" {
		t.Fatalf("request executed on %s, want owner rt-b", got)
	}
	if a.ms.Get(MetricForwards) < 1 {
		t.Fatalf("forward not counted on rt-a")
	}

	// A request already marked as forwarded must be served locally even
	// though rt-a's view says rt-b owns it — one hop max, never a loop.
	req, _ := http.NewRequest(http.MethodPost, a.srv.URL+"/v1/multiply", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, "rt-x")
	marked, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, marked.Body)
	marked.Body.Close()
	if marked.StatusCode != http.StatusOK {
		t.Fatalf("marked request: %s", marked.Status)
	}
	if got := marked.Header.Get(ShardHeader); got != "rt-a" {
		t.Fatalf("marked request executed on %s, want local rt-a", got)
	}
	if a.ms.Get(MetricForwardMiss) < 1 {
		t.Fatalf("ownership mismatch not counted on rt-a")
	}

	// Kill the owner without letting rt-a's view catch up, then post again:
	// the forward fails at the transport and rt-a serves it locally.
	b.node.Stop()
	b.srv.Close()
	b.server.Close()
	resp2, decoded2 := postMultiply(t, a.srv.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fallback multiply: %s (%v)", resp2.Status, decoded2["error"])
	}
	if got := resp2.Header.Get(ShardHeader); got != "rt-a" {
		t.Fatalf("fallback executed on %s, want rt-a", got)
	}
	if got := decoded2["fingerprint"]; got != fp {
		t.Fatalf("fallback served fingerprint %v, want %s", got, fp)
	}
	if a.ms.Get(MetricForwardFall) < 1 {
		t.Fatalf("forward fallback not counted on rt-a")
	}
}

// TestRouterPassesNonRoutedPathsThrough: classify, health and metrics are
// served wherever they land, with the shard header for observability.
func TestRouterPassesNonRoutedPathsThrough(t *testing.T) {
	dir := t.TempDir()
	a := newTestShard(t, "pt-a", dir)
	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(a.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz through router: %s", resp.Status)
	}
	if got := resp.Header.Get(ShardHeader); got != "pt-a" {
		t.Fatalf("shard header %q on passthrough", got)
	}
	mresp, err := http.Get(a.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics[MetricMembers]; !ok {
		t.Fatalf("shard/* gauges missing from /metrics: %v", metrics)
	}
}

// TestRouterBodyCap: the router buffers a routed body under the serving
// layer's own cap. One declared over it is refused with the handler's 413
// without a byte of it being read — never cut to a prefix and passed on.
func TestRouterBodyCap(t *testing.T) {
	srv := service.NewServer(service.Config{})
	defer srv.Close()
	node := NewNode(Config{ID: "cap", Addr: "127.0.0.1:1"})
	h := NewRouter(node, service.NewHandler(srv), nil, nil).Handler()
	read := false
	body := readerFunc(func([]byte) (int, error) { read = true; return 0, io.EOF })
	for _, path := range []string{"/v1/multiply", "/v1/multiply/batch", "/v1/prepare"} {
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = service.MaxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || read {
			t.Errorf("%s declared over the cap: status %d (body read: %v), want an unread 413: %s", path, rec.Code, read, rec.Body)
		}
		if got := rec.Header().Get(ShardHeader); got != "cap" {
			t.Errorf("%s: shard header %q, want the local node", path, got)
		}
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestRouterRetryAfterOnForwardedOverload: a 503 relayed from the owning
// shard must reach the client with a Retry-After header — supplied by the
// router when the upstream answer lacks one, and passed through untouched
// when the upstream already set it.
func TestRouterRetryAfterOnForwardedOverload(t *testing.T) {
	for _, upstream := range []string{"", "7"} {
		// The "owner" is a stub that sheds everything; with and without its
		// own Retry-After.
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if upstream != "" {
				w.Header().Set("Retry-After", upstream)
			}
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
		}))
		defer stub.Close()

		dir := t.TempDir()
		sh := newTestShard(t, "ra-self", dir)
		if err := sh.node.Start(""); err != nil {
			t.Fatal(err)
		}
		stubMember := Member{ID: "ra-stub", Addr: stub.Listener.Addr().String()}
		sh.node.mu.Lock()
		sh.node.maybeAdoptLocked(View{
			Epoch:   2,
			Members: []Member{sh.node.Self(), stubMember},
		}, "test")
		sh.node.mu.Unlock()

		// Find a structure the stub owns so the router must forward.
		var body []byte
		for seed := int64(0); ; seed++ {
			cand := multiplyBody(t, workload.Mixed(16, 2, 900+seed))
			fp, err := service.RequestFingerprint("/v1/multiply", cand)
			if err != nil {
				t.Fatal(err)
			}
			if owner, _ := sh.node.Owner(fp); owner.ID == stubMember.ID {
				body = cand
				break
			}
		}
		resp, _ := postMultiply(t, sh.srv.URL, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("upstream %q: status %s, want 503", upstream, resp.Status)
		}
		want := upstream
		if want == "" {
			want = "1"
		}
		if got := resp.Header.Get("Retry-After"); got != want {
			t.Fatalf("upstream %q: Retry-After = %q, want %q", upstream, got, want)
		}
		sh.kill()
	}
}
