package shard

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lbmm/internal/obsv"
)

// Counter names published by the shard tier (gauges noted).
const (
	MetricMembers      = "shard/members"           // gauge: live members in this node's view
	MetricEpoch        = "shard/epoch"             // gauge: view epoch
	MetricOwnPermille  = "shard/own_permille"      // gauge: share of the key space owned
	MetricRebalances   = "shard/rebalances"        // membership changes adopted (ownership remapped)
	MetricRepairs      = "shard/repairs"           // successor deaths this node detected and repaired
	MetricJoins        = "shard/joins"             // join requests handled
	MetricPings        = "shard/pings"             // alive-checks sent
	MetricPingFails    = "shard/ping_fails"        // alive-checks that failed
	MetricForwards     = "shard/forwards"          // requests proxied to their owner
	MetricForwardMiss  = "shard/forward_mismatch"  // forwarded-to requests we did not own
	MetricForwardFall  = "shard/forward_fallbacks" // forwards that failed and were served locally
	MetricAuthRejected = "shard/auth_rejected"     // membership changes refused for a missing/wrong token
)

// View is an epoch-stamped membership snapshot. Higher epochs win
// everywhere; equal epochs are tie-broken by a canonical digest so two
// nodes that bump concurrently still converge on one view.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// digest canonically hashes a view for the equal-epoch tiebreak.
func (v View) digest() uint64 {
	var b bytes.Buffer
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v.Epoch)
	b.Write(buf[:])
	ms := append([]Member(nil), v.Members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for _, m := range ms {
		b.WriteString("\x00")
		b.WriteString(m.ID)
		b.WriteString("\x01")
		b.WriteString(m.Addr)
	}
	return hash64(ringDomain, "view", b.String())
}

// has reports whether id is a member of the view.
func (v View) has(id string) bool {
	for _, m := range v.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// sameMembers reports whether two views list the same (ID, Addr) set.
func sameMembers(a, b View) bool {
	if len(a.Members) != len(b.Members) {
		return false
	}
	for _, m := range a.Members {
		found := false
		for _, o := range b.Members {
			if o == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Config tunes a membership node. The zero value of every field gets a
// sensible default.
type Config struct {
	// ID is the node's stable identity (default: Addr). Ring order — and
	// therefore next/twice-next pointers — is ID order.
	ID string
	// Addr is the advertised HTTP address peers dial, host:port.
	Addr string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// HeartbeatEvery is the alive-check period (default 250ms).
	HeartbeatEvery time.Duration
	// PingTimeout bounds one alive-check round trip (default 1s).
	PingTimeout time.Duration
	// SuspectAfter is how many consecutive failed alive-checks declare the
	// successor dead (default 2: one lost ping is weather, two is a corpse).
	SuspectAfter int
	// Metrics receives the shard/* counters; a fresh set when nil.
	Metrics *obsv.CounterSet
	// Logf, when non-nil, receives membership events (joins, repairs,
	// departures) — the operator trail.
	Logf func(format string, args ...any)
	// AuthToken, when non-empty, guards the state-mutating membership
	// endpoints (POST /shard/v1/join|view|leave): requests must carry
	// "Authorization: Bearer <token>" or are refused with 403. The node
	// presents the same token on its own outgoing membership calls, so one
	// shared secret covers the whole ring. Read-only endpoints (ping,
	// owner, info) stay open — they leak topology, not membership control.
	AuthToken string
}

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = c.Addr
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewCounterSet()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one member of the shard ring: it tracks the membership view,
// derives the ownership ring from it, alive-checks its successor and repairs
// the ring through the twice-next pointer when the successor dies. All
// methods are safe for concurrent use.
type Node struct {
	cfg  Config
	self Member

	mu       sync.Mutex
	view     View
	ring     *HashRing
	failures int    // consecutive alive-check failures on the current successor
	suspect  string // the successor the failures count against
	// leaving is set by Leave: the node has removed itself, so a view that
	// does not list it is its own doing, never a reason to rejoin.
	leaving bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	metrics  *obsv.CounterSet
	client   *http.Client // peer calls, each bounded by PingTimeout
}

// NewNode builds a node; it does not join anything until Start.
func NewNode(cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		self:    Member{ID: cfg.ID, Addr: cfg.Addr},
		stop:    make(chan struct{}),
		metrics: cfg.Metrics,
		client:  &http.Client{Timeout: cfg.PingTimeout},
	}
	n.adoptLocked(View{Epoch: 1, Members: []Member{n.self}}, "boot")
	return n
}

// Self returns this node's member record.
func (n *Node) Self() Member { return n.self }

// View returns the current membership view.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return View{Epoch: n.view.Epoch, Members: append([]Member(nil), n.view.Members...)}
}

// Owner returns the member owning a fingerprint under the current view.
func (n *Node) Owner(fingerprint string) (Member, bool) {
	n.mu.Lock()
	r := n.ring
	n.mu.Unlock()
	return r.Owner(fingerprint)
}

// Start begins the alive-check loop. When join is non-empty the node first
// announces itself to that address (any existing member) and adopts the
// returned view; an empty join boots a fresh single-node ring.
// The join is retried for a short window so a fleet whose processes start
// simultaneously (systemd, a test harness) does not die on the race between
// the seed binding its listener and the joiners dialing it.
func (n *Node) Start(join string) error {
	if join != "" {
		var v View
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if v, err = n.callJoin(join); err == nil {
				break
			}
			select {
			case <-n.stop:
				return fmt.Errorf("shard: join %s: %w", join, err)
			case <-time.After(time.Duration(attempt+1) * 50 * time.Millisecond):
			}
		}
		if err != nil {
			return fmt.Errorf("shard: join %s: %w", join, err)
		}
		n.mu.Lock()
		n.maybeAdoptLocked(v, "join")
		n.mu.Unlock()
	}
	n.wg.Add(1)
	go n.heartbeatLoop()
	return nil
}

// Stop halts the alive-check loop. It does not announce a leave — a stopped
// node looks exactly like a crashed one, which is the failure path the ring
// is built to absorb. Use Leave for a graceful departure first.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Leave gracefully removes this node from the ring: it bumps the epoch,
// adopts the view without itself and broadcasts it so survivors rebalance
// immediately instead of waiting out an alive-check. From then on the node
// never rejoins — the survivors' replies to its own broadcast list it no
// more — and no longer alive-checks anyone.
func (n *Node) Leave() {
	n.mu.Lock()
	n.leaving = true
	next := View{Epoch: n.view.Epoch + 1}
	for _, m := range n.view.Members {
		if m.ID != n.self.ID {
			next.Members = append(next.Members, m)
		}
	}
	peers := n.peersLocked()
	n.adoptLocked(next, "leave")
	n.mu.Unlock()
	n.cfg.Logf("shard %s: leaving ring (epoch %d)", n.self.ID, next.Epoch)
	n.broadcast(next, peers)
}

// ---------------------------------------------------------------------------
// view adoption

// adoptLocked installs a view unconditionally and rebuilds the ownership
// ring. Caller holds n.mu.
func (n *Node) adoptLocked(v View, why string) {
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	membersChanged := !sameMembers(n.view, v)
	n.view = v
	if membersChanged || n.ring == nil {
		n.ring = BuildRing(v.Members, n.cfg.VNodes)
		if why != "boot" {
			n.metrics.Add(MetricRebalances, 1)
		}
		// Membership changed under the failure detector: restart the count
		// against whoever the successor is now.
		n.failures, n.suspect = 0, ""
	}
	n.metrics.Set(MetricMembers, int64(len(v.Members)))
	n.metrics.Set(MetricEpoch, int64(v.Epoch))
	n.metrics.Set(MetricOwnPermille, n.ring.OwnedPermille(n.self.ID))
	n.cfg.Logf("shard %s: view epoch %d, %d members (%s)",
		n.self.ID, v.Epoch, len(v.Members), why)
}

// maybeAdoptLocked applies the convergence rule: higher epoch wins, equal
// epochs tie-break on the canonical digest. It re-joins when this node was
// dropped from a view it is plainly alive to receive, unless it is leaving.
// Caller holds n.mu. Returns whether v was adopted.
func (n *Node) maybeAdoptLocked(v View, why string) bool {
	cur := n.view
	if v.Epoch < cur.Epoch || (v.Epoch == cur.Epoch && v.digest() <= cur.digest()) {
		return false
	}
	n.adoptLocked(v, why)
	if !v.has(n.self.ID) && !n.leaving {
		// A failure detector somewhere declared us dead while we are alive
		// (a stalled heartbeat, a partition that healed). Re-announce rather
		// than wedge: bump the epoch with ourselves restored.
		rejoined := View{Epoch: v.Epoch + 1, Members: append(v.Members, n.self)}
		n.adoptLocked(rejoined, "rejoin")
		peers := n.peersLocked()
		go n.broadcast(rejoined, peers)
	}
	return true
}

// ---------------------------------------------------------------------------
// ring pointers + alive-check loop

// successorsLocked returns the next and twice-next members after self in ID
// order, skipping self. ok is false when the node is alone. Caller holds
// n.mu.
func (n *Node) successorsLocked() (next, twiceNext Member, ok bool) {
	ms := n.view.Members // ID-sorted by adoptLocked
	if len(ms) < 2 {
		return Member{}, Member{}, false
	}
	i := 0
	for ; i < len(ms); i++ {
		if ms[i].ID == n.self.ID {
			break
		}
	}
	next = ms[(i+1)%len(ms)]
	twiceNext = ms[(i+2)%len(ms)]
	return next, twiceNext, true
}

// peersLocked returns every member except self. Caller holds n.mu.
func (n *Node) peersLocked() []Member {
	out := make([]Member, 0, len(n.view.Members))
	for _, m := range n.view.Members {
		if m.ID != n.self.ID {
			out = append(out, m)
		}
	}
	return out
}

// heartbeatLoop is the ring's failure detector: every HeartbeatEvery it
// alive-checks the successor; SuspectAfter consecutive failures declare it
// dead and repair the ring through the twice-next pointer. The ping
// response carries the peer's whole view, so heartbeats double as
// anti-entropy (a node that missed a broadcast converges on the next beat).
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			n.checkSuccessor()
		}
	}
}

func (n *Node) checkSuccessor() {
	n.mu.Lock()
	next, twiceNext, ok := n.successorsLocked()
	if !ok || n.leaving {
		n.failures, n.suspect = 0, ""
		n.mu.Unlock()
		return
	}
	if n.suspect != next.ID {
		n.failures, n.suspect = 0, next.ID
	}
	n.mu.Unlock()

	n.metrics.Add(MetricPings, 1)
	v, err := n.callPing(next.Addr)
	if err == nil {
		n.mu.Lock()
		n.failures = 0
		n.maybeAdoptLocked(v, "gossip")
		n.mu.Unlock()
		return
	}
	n.metrics.Add(MetricPingFails, 1)

	n.mu.Lock()
	if n.suspect != next.ID || !n.view.has(next.ID) {
		// Membership moved under us while the ping was in flight.
		n.mu.Unlock()
		return
	}
	n.failures++
	if n.failures < n.cfg.SuspectAfter {
		n.mu.Unlock()
		return
	}
	// The successor is dead: close the ring over it (the classic repair —
	// our new successor is the old twice-next) and tell everyone.
	repaired := View{Epoch: n.view.Epoch + 1}
	for _, m := range n.view.Members {
		if m.ID != next.ID {
			repaired.Members = append(repaired.Members, m)
		}
	}
	n.metrics.Add(MetricRepairs, 1)
	n.cfg.Logf("shard %s: successor %s dead after %d failed checks, repairing ring toward %s (epoch %d)",
		n.self.ID, next.ID, n.failures, twiceNext.ID, repaired.Epoch)
	n.maybeAdoptLocked(repaired, "repair")
	peers := n.peersLocked()
	n.mu.Unlock()
	n.broadcast(repaired, peers)
}

// ---------------------------------------------------------------------------
// peer HTTP protocol

// wireJoin is the body of POST /shard/v1/join.
type wireJoin struct {
	Member Member `json:"member"`
}

// broadcast pushes a view to peers concurrently. A peer holding a newer
// view answers with it and the node converges on the reply; unreachable
// peers are the failure detector's problem, not broadcast's.
func (n *Node) broadcast(v View, peers []Member) {
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p Member) {
			defer wg.Done()
			reply, err := n.postView(p.Addr, v)
			if err != nil {
				return
			}
			n.mu.Lock()
			n.maybeAdoptLocked(reply, "broadcast-reply")
			n.mu.Unlock()
		}(p)
	}
	wg.Wait()
}

func (n *Node) callJoin(addr string) (View, error) {
	body, _ := json.Marshal(wireJoin{Member: n.self})
	return n.postJSON(addr, "/shard/v1/join", body)
}

func (n *Node) postView(addr string, v View) (View, error) {
	body, _ := json.Marshal(v)
	return n.postJSON(addr, "/shard/v1/view", body)
}

func (n *Node) callPing(addr string) (View, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PingTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/shard/v1/ping", nil)
	if err != nil {
		return View{}, err
	}
	return n.doView(req)
}

func (n *Node) postJSON(addr, path string, body []byte) (View, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PingTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return View{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if n.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+n.cfg.AuthToken)
	}
	return n.doView(req)
}

func (n *Node) doView(req *http.Request) (View, error) {
	resp, err := n.client.Do(req)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return View{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return View{}, err
	}
	return v, nil
}

// Handler returns the membership protocol endpoints, to be mounted under
// /shard/v1/ by the router:
//
//	POST /shard/v1/join   a new (or returning) member announces itself
//	POST /shard/v1/view   epoch-stamped view propagation (returns ours)
//	POST /shard/v1/leave  graceful departure of a member
//	GET  /shard/v1/ping   alive-check; the reply carries the full view
//	GET  /shard/v1/owner  ?fp=… → owning member under the current view
//	GET  /shard/v1/info   membership + ownership introspection
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/v1/join", n.authorized(func(w http.ResponseWriter, r *http.Request) {
		var jr wireJoin
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil || jr.Member.ID == "" || jr.Member.Addr == "" {
			http.Error(w, "join needs {member:{id,addr}}", http.StatusBadRequest)
			return
		}
		n.metrics.Add(MetricJoins, 1)
		n.mu.Lock()
		joined := View{Epoch: n.view.Epoch + 1}
		for _, m := range n.view.Members {
			if m.ID != jr.Member.ID {
				joined.Members = append(joined.Members, m)
			}
		}
		joined.Members = append(joined.Members, jr.Member)
		n.cfg.Logf("shard %s: %s joined at %s (epoch %d)", n.self.ID, jr.Member.ID, jr.Member.Addr, joined.Epoch)
		n.adoptLocked(joined, "member-join")
		peers := n.peersLocked()
		n.mu.Unlock()
		go n.broadcast(joined, peers)
		writeView(w, joined)
	}))
	mux.HandleFunc("POST /shard/v1/view", n.authorized(func(w http.ResponseWriter, r *http.Request) {
		var v View
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			http.Error(w, "bad view body", http.StatusBadRequest)
			return
		}
		n.mu.Lock()
		n.maybeAdoptLocked(v, "peer-view")
		cur := n.view
		n.mu.Unlock()
		writeView(w, cur)
	}))
	mux.HandleFunc("POST /shard/v1/leave", n.authorized(func(w http.ResponseWriter, r *http.Request) {
		var v View
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			http.Error(w, "bad leave body", http.StatusBadRequest)
			return
		}
		n.mu.Lock()
		n.maybeAdoptLocked(v, "member-leave")
		cur := n.view
		n.mu.Unlock()
		writeView(w, cur)
	}))
	mux.HandleFunc("GET /shard/v1/ping", func(w http.ResponseWriter, r *http.Request) {
		writeView(w, n.View())
	})
	mux.HandleFunc("GET /shard/v1/owner", func(w http.ResponseWriter, r *http.Request) {
		fp := r.URL.Query().Get("fp")
		if fp == "" {
			http.Error(w, "owner needs ?fp=<fingerprint>", http.StatusBadRequest)
			return
		}
		owner, ok := n.Owner(fp)
		if !ok {
			http.Error(w, "empty ring", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"fingerprint": fp, "id": owner.ID, "addr": owner.Addr,
		})
	})
	mux.HandleFunc("GET /shard/v1/info", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		info := struct {
			Self        Member `json:"self"`
			View        View   `json:"view"`
			OwnPermille int64  `json:"own_permille"`
			VNodes      int    `json:"vnodes"`
		}{
			Self:        n.self,
			View:        n.view,
			OwnPermille: n.ring.OwnedPermille(n.self.ID),
			VNodes:      n.cfg.VNodes,
		}
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(info)
	})
	return mux
}

// authorized wraps a state-mutating handler with the shared-secret check:
// with an AuthToken configured, the request must present it as a bearer
// token or is refused before any membership state is read.
func (n *Node) authorized(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.cfg.AuthToken != "" {
			// Constant-time compare: the check guards an open port, so
			// equality must not leak how much of a guessed token matched.
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(n.cfg.AuthToken)) != 1 {
				n.metrics.Add(MetricAuthRejected, 1)
				http.Error(w, "shard: membership change requires a matching auth token", http.StatusForbidden)
				return
			}
		}
		h(w, r)
	}
}

func writeView(w http.ResponseWriter, v View) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
