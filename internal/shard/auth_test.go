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

// newAuthNode is newTestNode with a shared-secret token configured.
func newAuthNode(t *testing.T, id, token string) *testNode {
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
		AuthToken:      token,
	})
	srv.Config.Handler = n.Handler()
	srv.Start()
	tn := &testNode{node: n, srv: srv, ms: ms}
	t.Cleanup(tn.kill)
	return tn
}

// TestMembershipAuthToken pins the bearer check on the state-mutating
// endpoints: join/view/leave without the token (or with the wrong one) are
// refused with 403 before any membership state is touched, the right token
// is admitted, and the read-only alive-check stays open so the failure
// detector keeps working across a fleet with mixed configuration.
func TestMembershipAuthToken(t *testing.T) {
	tn := newAuthNode(t, "guarded", "sesame")
	base := "http://" + tn.node.Self().Addr

	mutating := []string{"/shard/v1/join", "/shard/v1/view", "/shard/v1/leave"}
	post := func(path, token string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, path := range mutating {
		if got := post(path, "", nil).StatusCode; got != http.StatusForbidden {
			t.Errorf("POST %s without token: status %d, want 403", path, got)
		}
		if got := post(path, "wrong", nil).StatusCode; got != http.StatusForbidden {
			t.Errorf("POST %s with wrong token: status %d, want 403", path, got)
		}
	}
	if got := tn.ms.Get(MetricAuthRejected); got != int64(2*len(mutating)) {
		t.Errorf("%s = %d, want %d", MetricAuthRejected, got, 2*len(mutating))
	}
	if epoch := tn.node.View().Epoch; epoch != 1 {
		t.Errorf("view epoch %d after rejected requests, want the boot epoch 1", epoch)
	}

	// The right token is admitted and the join actually lands.
	body, _ := json.Marshal(wireJoin{Member: Member{ID: "newcomer", Addr: "127.0.0.1:1"}})
	resp := post("/shard/v1/join", "sesame", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized join: status %d, want 200", resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 || !v.has("newcomer") {
		t.Fatalf("authorized join returned view %+v, want 2 members including newcomer", v)
	}

	// Read-only endpoints answer without any credentials.
	pingResp, err := http.Get(base + "/shard/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	defer pingResp.Body.Close()
	if pingResp.StatusCode != http.StatusOK {
		t.Errorf("GET ping without token: status %d, want 200", pingResp.StatusCode)
	}
}

// TestMembershipAuthRing proves the outgoing side: nodes configured with the
// same token present it on their own join/view/leave calls, so a guarded
// ring forms, converges, and departs exactly like an open one.
func TestMembershipAuthRing(t *testing.T) {
	var nodes []*testNode
	for i := 0; i < 3; i++ {
		nodes = append(nodes, newAuthNode(t, fmt.Sprintf("n%d", i), "sesame"))
	}
	if err := nodes[0].node.Start(""); err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes[1:] {
		if err := tn.node.Start(nodes[0].node.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "guarded ring convergence", func() bool {
		return converged(nodes, "n0", "n1", "n2")
	})

	nodes[2].node.Leave()
	nodes[2].kill()
	waitFor(t, "guarded ring shrink after leave", func() bool {
		return converged(nodes[:2], "n0", "n1")
	})
	for _, tn := range nodes[:2] {
		if got := tn.ms.Get(MetricAuthRejected); got != 0 {
			t.Errorf("%s: %s = %d on a same-token ring, want 0", tn.node.Self().ID, MetricAuthRejected, got)
		}
	}
}
