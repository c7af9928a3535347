package dist

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"net"
	"sync"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// WorkerOptions tune one worker process.
type WorkerOptions struct {
	// Log receives one line per connection event and job; nil is silent.
	Log func(format string, args ...any)
	// PeerTimeout bounds how long a job waits for its mesh to form: dialing
	// lower ranks (with retry — peers may still be starting) and claiming
	// inbound connections from higher ranks. 0 means 30s.
	PeerTimeout time.Duration
	// ReadTimeout is the mesh's barrier deadline T (Mesh.ReadTimeout),
	// armed on the reads of the peers' frames and on the writes of ours: a
	// stalled barrier fails after between T and 2T. 0 means the Mesh
	// default (60s).
	ReadTimeout time.Duration
	// ParkTTL bounds how long an unclaimed inbound peer connection may sit
	// parked: a job that never forms (failed mesh, dead coordinator) must
	// not leak fds for the worker's lifetime. 0 means 2×PeerTimeout.
	ParkTTL time.Duration
	// PlanCache is the number of decoded prepared plans kept in the
	// worker's fingerprint-keyed LRU; repeat jobs on a warm worker skip the
	// envelope decode (dist/plan_hits). 0 means 16; negative disables.
	PlanCache int
	// AuthToken, when non-empty, is the shared secret every inbound hello
	// must carry: a coordinator or peer whose token mismatches is rejected
	// (a job hello gets an unauthorized result frame; a peer hello is
	// closed). The same token is presented on this worker's outgoing peer
	// dials, so one fleet-wide secret covers the whole mesh.
	AuthToken string
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o WorkerOptions) peerTimeout() time.Duration {
	if o.PeerTimeout > 0 {
		return o.PeerTimeout
	}
	return 30 * time.Second
}

func (o WorkerOptions) parkTTL() time.Duration {
	if o.ParkTTL > 0 {
		return o.ParkTTL
	}
	return 2 * o.peerTimeout()
}

func (o WorkerOptions) planCacheSize() int {
	switch {
	case o.PlanCache > 0:
		return o.PlanCache
	case o.PlanCache < 0:
		return 0
	}
	return 16
}

// worker is the per-process state shared by all connections: peer
// connections that arrived before their job claims them, parked by
// (job, rank), and the fingerprint-keyed plan cache shared by all jobs.
type worker struct {
	opts   WorkerOptions
	mu     sync.Mutex
	cond   *sync.Cond
	parked map[string]map[int]net.Conn
	plans  *planCache
}

// newWorker builds the per-process worker state.
func newWorker(opts WorkerOptions) *worker {
	w := &worker{
		opts:   opts,
		parked: make(map[string]map[int]net.Conn),
		plans:  newPlanCache(opts.planCacheSize()),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// ListenAndServe runs a worker on addr until the listener fails. The worker
// serves any number of jobs, sequentially or concurrently; each job forms
// its own mesh.
func ListenAndServe(addr string, opts WorkerOptions) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	opts.logf("worker listening on %s", l.Addr())
	return Serve(l, opts)
}

// Serve runs a worker on an existing listener (tests use in-process
// listeners on port 0).
func Serve(l net.Listener, opts WorkerOptions) error {
	return newWorker(opts).serve(l)
}

func (w *worker) serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go w.handle(conn)
	}
}

// handle routes one inbound connection by its hello frame: coordinator
// connections run a job, peer connections park until that job's mesh
// formation claims them.
func (w *worker) handle(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var h helloFrame
	if err := readFrame(conn, &h, maxHelloBytes); err != nil {
		w.opts.logf("rejecting connection from %s: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	// Constant-time compare: the check guards an open port, so equality must
	// not leak how much of a guessed token matched.
	if w.opts.AuthToken != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(w.opts.AuthToken)) != 1 {
		w.opts.logf("rejecting %s connection from %s: auth token mismatch", h.Kind, conn.RemoteAddr())
		if h.Kind == "job" {
			// Answer the coordinator instead of letting it wait out its
			// result timeout: the run fails fast with the real reason.
			_ = writeFrame(conn, &resultFrame{Job: h.Job, Err: "dist: unauthorized: worker requires a matching auth token"})
		}
		conn.Close()
		return
	}
	switch h.Kind {
	case "peer":
		w.park(h.Job, h.Rank, conn)
	case "job":
		defer conn.Close()
		if err := w.runJob(conn); err != nil {
			w.opts.logf("job failed: %v", err)
		}
	default:
		w.opts.logf("rejecting connection from %s: unknown hello kind %q", conn.RemoteAddr(), h.Kind)
		conn.Close()
	}
}

// park stores an inbound peer connection for its job to claim, and arms a
// TTL sweep for it: a parked connection whose job never claims it — mesh
// formation failed on another rank, or the coordinator died after the peers
// dialed — would otherwise hold its fd and its parked[job] map entry for
// the worker's whole lifetime.
func (w *worker) park(job string, rank int, conn net.Conn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.parked[job] == nil {
		w.parked[job] = make(map[int]net.Conn)
	}
	if old := w.parked[job][rank]; old != nil {
		old.Close()
	}
	w.parked[job][rank] = conn
	w.cond.Broadcast()
	time.AfterFunc(w.opts.parkTTL(), func() { w.reap(job, rank, conn) })
}

// reap closes and forgets one parked connection if it is still the one
// parked under (job, rank) — a claim or a newer park already removed or
// replaced it otherwise.
func (w *worker) reap(job string, rank int, conn net.Conn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.parked[job]
	if m == nil || m[rank] != conn {
		return
	}
	conn.Close()
	delete(m, rank)
	if len(m) == 0 {
		delete(w.parked, job)
	}
	w.opts.logf("job %s: reaped unclaimed peer connection from rank %d after %s", job, rank, w.opts.parkTTL())
}

// releaseJob drops every parked connection of a job — called once the
// job's mesh has formed (leftovers are duplicate dials that will never be
// claimed) or the job has errored (nothing will claim them). The TTL sweep
// is only the backstop for jobs this worker never runs.
func (w *worker) releaseJob(job string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.parked[job] {
		c.Close()
	}
	delete(w.parked, job)
}

// parkedConns reports the number of parked connections across all jobs
// (tests assert the leak fixes).
func (w *worker) parkedConns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, m := range w.parked {
		n += len(m)
	}
	return n
}

// claim waits for the parked peer connection of (job, rank).
func (w *worker) claim(job string, rank int, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() { w.cond.Broadcast() })
	defer wake.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if m := w.parked[job]; m != nil {
			if c := m[rank]; c != nil {
				delete(m, rank)
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: no peer connection from rank %d for job %s within %s", rank, job, timeout)
		}
		w.cond.Wait()
	}
}

// runJob executes one distributed multiplication: decode the job, resolve
// the prepared plan (cache by fingerprint, else decode the envelope), form
// the mesh (dial lower ranks, claim higher ranks), run the plan with the
// mesh transport, and reply with this rank's partial result. Whatever the
// outcome, the job's parked peer connections are released — once the mesh
// has formed any leftover is a stray duplicate, and after an error nothing
// will ever claim them.
func (w *worker) runJob(conn net.Conn) error {
	var jf jobFrame
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if err := readFrame(conn, &jf, maxFrameBytes); err != nil {
		return fmt.Errorf("reading job frame: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	defer w.releaseJob(jf.Job)
	w.opts.logf("job %s: rank %d of %d, n=%d, ring %s, lane payload %dB", jf.Job, jf.Rank, jf.Workers, jf.N, jf.Ring, len(jf.Lanes))

	rf := resultFrame{Job: jf.Job, Rank: jf.Rank}
	counters := obsv.NewCounterSet()
	xs, stats, err := w.execute(&jf, counters)
	switch {
	case err == nil:
		rf.X = make([][]wireVal, len(xs))
		for l, x := range xs {
			rf.X[l] = entriesOf(x)
		}
		rf.Stats = stats
		rf.Counters = counters.Snapshot()
	default:
		if f, ok := lbm.AsFault(err); ok {
			rf.Fault = f
		} else {
			rf.Err = err.Error()
		}
		rf.Counters = counters.Snapshot()
	}
	if err := writeFrame(conn, &rf); err != nil {
		return fmt.Errorf("job %s: writing result: %w", jf.Job, err)
	}
	return nil
}

// plan resolves the job's prepared plan: a fingerprint held in the
// worker's cache skips the envelope decode entirely (dist/plan_hits); a
// miss decodes the shipped envelope, cross-checks its self-address against
// the requested fingerprint, and caches it for the next job.
func (w *worker) plan(jf *jobFrame, counters *obsv.CounterSet) (*core.Prepared, error) {
	if prep, ok := w.plans.get(jf.Fingerprint); ok {
		counters.Add(CounterPlanHits, 1)
		return prep, nil
	}
	counters.Add(CounterPlanMisses, 1)
	if len(jf.Prepared) == 0 {
		return nil, fmt.Errorf("dist: job plan %s not cached and no envelope shipped", jf.Fingerprint)
	}
	prep, err := core.DecodePrepared(bytes.NewReader(jf.Prepared))
	if err != nil {
		return nil, fmt.Errorf("dist: job plan: %w", err)
	}
	if jf.Fingerprint != "" {
		fp, err := prep.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("dist: job plan self-address: %w", err)
		}
		if fp != jf.Fingerprint {
			return nil, fmt.Errorf("dist: job plan fingerprint %s does not match the envelope's %s", jf.Fingerprint, fp)
		}
		w.plans.put(fp, prep)
	}
	return prep, nil
}

// execute runs the rank's share of the job and returns its per-lane
// partial outputs.
func (w *worker) execute(jf *jobFrame, counters *obsv.CounterSet) ([]*matrix.Sparse, lbm.Stats, error) {
	var stats lbm.Stats
	if jf.Workers < 1 || jf.Rank < 0 || jf.Rank >= jf.Workers || len(jf.Peers) != jf.Workers {
		return nil, stats, fmt.Errorf("dist: malformed job: rank %d of %d with %d peers", jf.Rank, jf.Workers, len(jf.Peers))
	}
	laneA, laneB, err := decodeLanes(jf.Lanes)
	if err != nil {
		return nil, stats, err
	}
	if len(laneA) == 0 || len(laneA) != len(laneB) {
		return nil, stats, fmt.Errorf("dist: malformed job: %d A lanes, %d B lanes", len(laneA), len(laneB))
	}
	if len(jf.Table) > 0 && len(jf.Table) != jf.N {
		return nil, stats, fmt.Errorf("dist: malformed job: partition table covers %d of %d nodes", len(jf.Table), jf.N)
	}
	if err := ValidateTable(jf.Table, jf.Workers); err != nil {
		return nil, stats, err
	}
	prep, err := w.plan(jf, counters)
	if err != nil {
		return nil, stats, err
	}
	r, err := matrix.RingByName(jf.Ring)
	if err != nil {
		return nil, stats, err
	}
	as := make([]*matrix.Sparse, len(laneA))
	bs := make([]*matrix.Sparse, len(laneB))
	for l := range laneA {
		as[l] = sparseFrom(jf.N, r, laneA[l])
		bs[l] = sparseFrom(jf.N, r, laneB[l])
	}

	conns, err := w.meshConns(jf)
	if err != nil {
		closeConns(conns)
		return nil, stats, err
	}
	mesh, err := NewMesh(Partition{Workers: jf.Workers, Rank: jf.Rank, Table: jf.Table}, conns, counters)
	if err != nil {
		closeConns(conns)
		return nil, stats, err
	}
	defer mesh.Close()
	if w.opts.ReadTimeout > 0 {
		mesh.ReadTimeout = w.opts.ReadTimeout
	}
	xs, rep, err := prep.MultiplyBatch(as, bs, core.ExecOpts{Transport: mesh})
	if err != nil {
		return nil, stats, err
	}
	return xs, rep.Stats, nil
}

// meshConns forms this rank's side of the mesh: dial every lower rank (with
// retry — the peer worker only has to be listening, not yet working on the
// job) and claim the inbound connection of every higher rank.
func (w *worker) meshConns(jf *jobFrame) ([]net.Conn, error) {
	timeout := w.opts.peerTimeout()
	conns := make([]net.Conn, jf.Workers)
	for j := 0; j < jf.Rank; j++ {
		c, err := dialRetry(jf.Peers[j], timeout)
		if err != nil {
			return conns, fmt.Errorf("dist: rank %d dialing rank %d: %w", jf.Rank, j, err)
		}
		if err := writeFrame(c, &helloFrame{Kind: "peer", Job: jf.Job, Rank: jf.Rank, Token: w.opts.AuthToken}); err != nil {
			c.Close()
			return conns, fmt.Errorf("dist: rank %d greeting rank %d: %w", jf.Rank, j, err)
		}
		conns[j] = c
	}
	for j := jf.Rank + 1; j < jf.Workers; j++ {
		c, err := w.claim(jf.Job, j, timeout)
		if err != nil {
			return conns, err
		}
		conns[j] = c
	}
	return conns, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// dialRetry dials addr until it answers or the timeout elapses — worker
// processes of one job may start in any order.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// entriesOf flattens a sparse matrix into wire entries.
func entriesOf(m *matrix.Sparse) []wireVal {
	out := make([]wireVal, 0, m.NNZ())
	for i, row := range m.Rows {
		for _, c := range row {
			out = append(out, wireVal{I: int32(i), J: c.Col, V: c.Val})
		}
	}
	return out
}

// sparseFrom rebuilds a sparse matrix from wire entries.
func sparseFrom(n int, r ring.Semiring, vals []wireVal) *matrix.Sparse {
	m := matrix.NewSparse(n, r)
	for _, e := range vals {
		m.Set(int(e.I), int(e.J), e.V)
	}
	return m
}
