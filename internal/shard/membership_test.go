package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lbmm/internal/obsv"
)

// testNode is one in-process ring member: a Node plus the httptest server
// that exposes its membership protocol — the same wiring `lbmm serve -ring`
// does, minus the service handler (router_test covers that layering).
type testNode struct {
	node *Node
	srv  *httptest.Server
	ms   *obsv.CounterSet
}

func (tn *testNode) kill() {
	tn.srv.Close()
	tn.node.Stop()
}

// newTestNode builds a node with drill-speed timers: deaths are detected in
// tens of milliseconds so the scenarios below finish in a couple of seconds.
func newTestNode(t *testing.T, id string) *testNode {
	t.Helper()
	ms := obsv.NewCounterSet()
	srv := httptest.NewUnstartedServer(nil)
	n := NewNode(Config{
		ID:             id,
		Addr:           srv.Listener.Addr().String(),
		HeartbeatEvery: 15 * time.Millisecond,
		PingTimeout:    250 * time.Millisecond,
		SuspectAfter:   2,
		Metrics:        ms,
		Logf:           t.Logf,
	})
	srv.Config.Handler = n.Handler()
	srv.Start()
	tn := &testNode{node: n, srv: srv, ms: ms}
	t.Cleanup(tn.kill)
	return tn
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// converged reports whether every listed node sees exactly the given member
// IDs.
func converged(nodes []*testNode, ids ...string) bool {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, tn := range nodes {
		v := tn.node.View()
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

// TestMembershipLifecycle walks the full drill: three nodes join and
// converge on one view, agree on ownership; the founding node is killed and
// the survivors repair the ring; the dead identity rejoins at a new address
// and the ring re-converges without wedging.
func TestMembershipLifecycle(t *testing.T) {
	a := newTestNode(t, "node-a")
	b := newTestNode(t, "node-b")
	c := newTestNode(t, "node-c")

	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	if err := b.node.Start(a.node.Self().Addr); err != nil {
		t.Fatal(err)
	}
	// Joining through a non-founding member must work the same: any member
	// can admit a new one.
	if err := c.node.Start(b.node.Self().Addr); err != nil {
		t.Fatal(err)
	}

	all := []*testNode{a, b, c}
	waitFor(t, "3-node convergence", func() bool {
		return converged(all, "node-a", "node-b", "node-c")
	})

	// Ownership must agree across replicas of the same view.
	for _, fp := range fps(64) {
		oa, _ := a.node.Owner(fp)
		ob, _ := b.node.Owner(fp)
		oc, _ := c.node.Owner(fp)
		if oa.ID != ob.ID || ob.ID != oc.ID {
			t.Fatalf("nodes disagree on owner of %s: %s/%s/%s", fp, oa.ID, ob.ID, oc.ID)
		}
	}

	// Kill the node the other two joined through.
	a.kill()
	survivors := []*testNode{b, c}
	waitFor(t, "repair after node-a's death", func() bool {
		return converged(survivors, "node-b", "node-c")
	})
	if repairs := survivors[0].ms.Get(MetricRepairs) + survivors[1].ms.Get(MetricRepairs); repairs < 1 {
		t.Fatalf("no survivor counted a ring repair (got %d)", repairs)
	}

	// The dead identity comes back on a fresh port (a restarted process) and
	// joins through a survivor; the ring must fold it back in.
	reborn := newTestNode(t, "node-a")
	if err := reborn.node.Start(survivors[0].node.Self().Addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rejoin convergence", func() bool {
		return converged([]*testNode{survivors[0], survivors[1], reborn}, "node-a", "node-b", "node-c")
	})
	if p := reborn.ms.Get(MetricOwnPermille); p <= 0 {
		t.Fatalf("rejoined node owns %d permille — rebalance did not restore its arcs", p)
	}
}

// TestMembershipGracefulLeave checks the fast path: a leaving node
// broadcasts its own removal, so survivors rebalance immediately instead of
// burning alive-check rounds on a corpse.
func TestMembershipGracefulLeave(t *testing.T) {
	a := newTestNode(t, "left-a")
	b := newTestNode(t, "left-b")
	c := newTestNode(t, "left-c")
	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	if err := b.node.Start(a.node.Self().Addr); err != nil {
		t.Fatal(err)
	}
	if err := c.node.Start(a.node.Self().Addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "3-node convergence", func() bool {
		return converged([]*testNode{a, b, c}, "left-a", "left-b", "left-c")
	})

	c.node.Leave()
	c.node.Stop()
	c.srv.Close()
	waitFor(t, "survivors adopt the leave", func() bool {
		return converged([]*testNode{a, b}, "left-a", "left-b")
	})
}

// TestLeaveDoesNotRejoin pins that a leave is final: the survivors' replies
// to the leaver's own broadcast list it no more, and it must not take them
// for a failure detector's mistake and re-announce itself. The leaver keeps
// running here — alive-checks, gossip and all — so any rejoin would reach
// the survivors and keep them from settling on two members.
func TestLeaveDoesNotRejoin(t *testing.T) {
	a := newTestNode(t, "stay-a")
	b := newTestNode(t, "stay-b")
	c := newTestNode(t, "go-c")
	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*testNode{b, c} {
		if err := tn.node.Start(a.node.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "3-node convergence", func() bool {
		return converged([]*testNode{a, b, c}, "stay-a", "stay-b", "go-c")
	})

	c.node.Leave()
	readded := false
	leaverView := func() bool {
		if c.node.View().has("go-c") {
			readded = true
		}
		return !readded
	}
	waitFor(t, "survivors adopt the leave", func() bool {
		return leaverView() && converged([]*testNode{a, b}, "stay-a", "stay-b")
	})
	// Twenty heartbeats later nothing has moved back.
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if !leaverView() {
			break
		}
	}
	if readded {
		t.Fatalf("the leaver re-added itself: its view is %+v", c.node.View())
	}
	if !converged([]*testNode{a, b}, "stay-a", "stay-b") {
		t.Fatalf("survivors moved off the 2-member view: %+v / %+v", a.node.View(), b.node.View())
	}
	if got := c.ms.Get(MetricMembers); got != 2 {
		t.Errorf("the leaver's %s = %d, want the 2 survivors", MetricMembers, got)
	}
}

// TestRejoinOnDroppedView exercises the anti-wedge rule directly: a node
// that receives a newer view not listing itself must re-announce instead of
// serving forever as a ghost no ring member routes to.
func TestRejoinOnDroppedView(t *testing.T) {
	n := NewNode(Config{ID: "ghost", Addr: "127.0.0.1:0", Metrics: obsv.NewCounterSet()})
	defer n.Stop()
	h := n.Handler()

	dropped := View{Epoch: 5, Members: []Member{{ID: "other", Addr: "127.0.0.1:1"}}}
	body, _ := json.Marshal(dropped)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/v1/view", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("view post: %d", rec.Code)
	}

	v := n.View()
	if !v.has("ghost") {
		t.Fatalf("node accepted a view dropping itself: %+v", v)
	}
	if v.Epoch <= dropped.Epoch {
		t.Fatalf("rejoin must outbid the dropping view: epoch %d <= %d", v.Epoch, dropped.Epoch)
	}
	if !v.has("other") {
		t.Fatalf("rejoin lost the other member: %+v", v)
	}
}

// TestViewConvergenceRule pins the epoch/digest ordering the whole protocol
// rests on: older epochs never win, equal epochs resolve identically on both
// sides of a concurrent bump.
func TestViewConvergenceRule(t *testing.T) {
	n := NewNode(Config{ID: "r", Addr: "127.0.0.1:0", Metrics: obsv.NewCounterSet()})
	defer n.Stop()

	newer := View{Epoch: 3, Members: []Member{{ID: "r", Addr: "127.0.0.1:0"}, {ID: "s", Addr: "x"}}}
	n.mu.Lock()
	if !n.maybeAdoptLocked(newer, "test") {
		n.mu.Unlock()
		t.Fatal("newer epoch rejected")
	}
	stale := View{Epoch: 2, Members: []Member{{ID: "s", Addr: "x"}, {ID: "r", Addr: "127.0.0.1:0"}}}
	if n.maybeAdoptLocked(stale, "test") {
		n.mu.Unlock()
		t.Fatal("stale epoch adopted")
	}
	same := n.view
	if n.maybeAdoptLocked(same, "test") {
		n.mu.Unlock()
		t.Fatal("identical view re-adopted (digest tie must be stable)")
	}
	n.mu.Unlock()

	// Equal epoch, different digest: exactly one of the two orderings wins,
	// and both nodes agree which — that is all convergence needs.
	va := View{Epoch: 9, Members: []Member{{ID: "a"}, {ID: "b"}}}
	vb := View{Epoch: 9, Members: []Member{{ID: "a"}, {ID: "c"}}}
	if (va.digest() <= vb.digest()) == (vb.digest() <= va.digest()) {
		t.Fatalf("digest tiebreak not a strict order: %d vs %d", va.digest(), vb.digest())
	}
}

// TestOwnerEndpoint covers the introspection route `lbmm fingerprint -via`
// relies on.
func TestOwnerEndpoint(t *testing.T) {
	a := newTestNode(t, "solo")
	if err := a.node.Start(""); err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("%064x", 7)
	resp, err := http.Get(a.srv.URL + "/shard/v1/owner?fp=" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Fingerprint string `json:"fingerprint"`
		ID          string `json:"id"`
		Addr        string `json:"addr"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "solo" || got.Fingerprint != fp || got.Addr != a.node.Self().Addr {
		t.Fatalf("owner endpoint answered %+v", got)
	}
	bad, err := http.Get(a.srv.URL + "/shard/v1/owner")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("owner without fp: %s", bad.Status)
	}
}
