package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/dist"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/service"
	"lbmm/internal/stream"
)

const (
	engineN          = 256
	streamN          = 64
	engineStructures = 64 // plans an engine caller compiles, keeps and rotates over
	rotationSets     = 4  // value sets of each structure a workload rotates over
	batchLanes       = 16 // k of engine_batch16
	burstLanes       = 64 // lanes a stream_hot op submits before waiting
	streamStructures = 16 // hot structures stream_hot's bursts rotate over
	meshRanks        = 3
	opTimeout        = 30 * time.Second
	// A rotating workload stays on one structure for a block of ops before
	// the next takes over: long enough that the plan is as warm in the
	// processor's caches as a caller's one hot plan (15–20 ms), short enough
	// that every timed slice of a run visits every structure.
	engineBlockLanes = 320
	meshBlockOps     = 8
)

// live is a workload that has been set up and stays ready between slices.
type live interface {
	// op runs one operation. The returned time covers the client's encode,
	// the calls into the program and the client's decode; comparing every
	// lane with its oracle product happens after the clock stops. class is
	// the structure the op multiplied when the workload rotates over
	// structures whose costs differ, 0 otherwise; failed counts lanes that
	// errored or differ from the oracle.
	op(tr *tracer) (elapsed time.Duration, class, failed int)
	// wireBytes is the running total of bytes moved over sockets (engine
	// workloads: value bytes handed across the API).
	wireBytes() int64
	// counters snapshots the program's own counters on this workload's path.
	counters() map[string]int64
	// check returns the path assertions the timed slices violated.
	check(t *tally) []string
	close()
}

// setupFunc makes a workload ready from scratch by calling into the program
// only, so its wall time is set-up time. It calls lap after every step it
// completes (a structure compiled, a server started, a warm op answered),
// the same steps in the same order on every call.
type setupFunc func(lap func()) (live, error)

// spec describes one workload. inputs generates everything the workload
// feeds the program from the seed and returns its setup.
type spec struct {
	name       string
	lanesPerOp int
	structures int // structures the timed ops rotate over in blocks; 1: no rotation
	inputs     func(seed int64, dir string) (setupFunc, error)
}

// specs are the six workloads in the order every round runs them;
// BENCHMARK.json and README.md record why each is there.
var specs = []spec{
	{"engine_scalar", 1, engineStructures, engineInputs(1)},
	{"engine_batch16", batchLanes, engineStructures, engineInputs(batchLanes)},
	{"edge_hot", 1, 1, edgeHotInputs},
	{"edge_cold", 1, 1, edgeColdInputs},
	{"stream_hot", burstLanes, 1, streamHotInputs},
	{"mesh_tcp", 1, engineStructures, meshInputs},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// compileAndWarm is the setup an embedding caller pays: compile every
// structure and run each plan once.
func compileAndWarm(structs []*structure, lap func()) ([]*core.Prepared, error) {
	preps := make([]*core.Prepared, len(structs))
	for k, s := range structs {
		p, err := s.prepare()
		if err != nil {
			return nil, fmt.Errorf("prepare structure %d: %w", k, err)
		}
		l := &s.lanes[0]
		x, _, err := p.Multiply(l.a, l.b)
		if err != nil {
			return nil, fmt.Errorf("warm structure %d: %w", k, err)
		}
		if !matrix.Equal(x, l.want) {
			return nil, fmt.Errorf("warm structure %d: product differs from oracle", k)
		}
		preps[k] = p
		lap()
	}
	return preps, nil
}

// structures generates count structures; the first hot of them, the ones
// timed ops multiply, get sets value sets each and the others none.
func structures(n int, seed int64, count, hot, sets int) ([]*structure, error) {
	structs := make([]*structure, count)
	for k := range structs {
		if k == hot {
			sets = 0
		}
		s, err := generate(n, seed, k, sets)
		if err != nil {
			return nil, err
		}
		structs[k] = s
	}
	return structs, nil
}

// turns deals the ops of a rotating workload to its structures in blocks,
// the value set changing with every op. How many rounds and messages a
// structure costs varies by tens of percent from one structure to the next,
// so a single hot structure would make the run a measurement of the seed;
// walking all of them op by op would instead time a caller whose plan is
// never warm.
type turns struct {
	structures, block int
	ops               int
}

func (t *turns) next() (class, set int) {
	class, set = t.ops/t.block%t.structures, t.ops%rotationSets
	t.ops++
	return class, set
}

// ---- engine_scalar, engine_batch16 ----

type engineLive struct {
	structs []*structure
	preps   []*core.Prepared
	k       int // lanes per op
	turns   turns
	moved   int64
	// as[s], bs[s] are structure s's value sets repeated up to k lanes.
	as, bs [][]*matrix.Sparse
}

func engineInputs(k int) func(int64, string) (setupFunc, error) {
	return func(seed int64, _ string) (setupFunc, error) {
		structs, err := structures(engineN, seed, engineStructures, engineStructures, rotationSets)
		if err != nil {
			return nil, err
		}
		return func(lap func()) (live, error) {
			preps, err := compileAndWarm(structs, lap)
			if err != nil {
				return nil, err
			}
			e := &engineLive{structs: structs, preps: preps, k: k, turns: turns{structures: len(structs), block: engineBlockLanes / k}}
			for _, s := range structs {
				var as, bs []*matrix.Sparse
				for i := 0; i < k; i++ {
					as, bs = append(as, s.lanes[i%rotationSets].a), append(bs, s.lanes[i%rotationSets].b)
				}
				e.as, e.bs = append(e.as, as), append(e.bs, bs)
			}
			return e, nil
		}, nil
	}
}

func (e *engineLive) op(tr *tracer) (time.Duration, int, int) {
	id := tr.nextOp()
	class, first := e.turns.next()
	lanes := e.structs[class].lanes
	var xs []*matrix.Sparse
	var err error
	start := time.Now()
	if e.k == 1 {
		var x *matrix.Sparse
		x, _, err = e.preps[class].Multiply(lanes[first].a, lanes[first].b)
		xs = []*matrix.Sparse{x}
	} else {
		first = 0
		xs, _, err = e.preps[class].MultiplyBatch(e.as[class], e.bs[class], core.ExecOpts{})
	}
	end := time.Now()
	tr.add(id, "core.multiply", "", start, end)
	failed := 0
	for i := 0; i < e.k; i++ {
		l := &lanes[(first+i)%rotationSets]
		e.moved += l.valueBytes()
		if err != nil || !matrix.Equal(xs[i], l.want) {
			failed++
		}
	}
	return end.Sub(start), class, failed
}

func (e *engineLive) wireBytes() int64           { return e.moved }
func (e *engineLive) counters() map[string]int64 { return nil }
func (e *engineLive) check(*tally) []string      { return nil }
func (e *engineLive) close()                     {}

// ---- the HTTP edge shared by edge_hot, edge_cold and stream_hot ----

// countingConn counts every byte the client reads from or writes to its
// socket, which on loopback is every byte the connection carries.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingClient returns an HTTP client limited to one connection per host
// whose sockets add to bytes and whose dials add to dials.
func countingClient(bytes, dials *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			return countingConn{c, bytes}, nil
		},
	}}
}

// httpServer is a loopback listener serving one handler until close.
type httpServer struct {
	hs     *http.Server
	served chan error
	base   string
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.hs.Close() // closes the listener and every connection; nothing is left to flush
	<-s.served
}

type edge struct {
	srv     *service.Server
	handler http.Handler
	web     *httpServer
	client  *http.Client
	moved   atomic.Int64
	dials   atomic.Int64
}

// startEdge starts the program's HTTP surface on a loopback port the way
// `lbmm serve` mounts it, and a client that counts its socket bytes.
func startEdge(cfg service.Config, streaming bool) (*edge, error) {
	e := &edge{srv: service.NewServer(cfg)}
	e.handler = service.NewHandler(e.srv)
	h := e.handler
	if streaming {
		mux := http.NewServeMux()
		mux.Handle("/stream/", stream.NewHandler(e.srv, stream.Config{Metrics: cfg.Metrics}))
		mux.Handle("/", e.handler)
		h = mux
	}
	web, err := serveHTTP(h)
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.web = web
	e.client = countingClient(&e.moved, &e.dials)
	return e, nil
}

// prepareAll compiles the structures into the plan cache through the
// serving API.
func (e *edge) prepareAll(structs []*structure, lap func()) error {
	for k, s := range structs {
		_, err := e.srv.Prepare(context.Background(), &service.PrepareRequest{
			Ahat: s.inst.Ahat, Bhat: s.inst.Bhat, Xhat: s.inst.Xhat, Options: planOpts,
		})
		if err != nil {
			return fmt.Errorf("prepare resident %d: %w", k, err)
		}
		lap()
	}
	return nil
}

func (e *edge) close() {
	e.client.CloseIdleConnections()
	e.web.close()
	e.srv.Close()
}

func (e *edge) wireBytes() int64           { return e.moved.Load() }
func (e *edge) counters() map[string]int64 { return e.srv.Metrics() }

// multiplyReply is the part of a /v1/multiply response a client decodes.
type multiplyReply struct {
	X []service.WireEntry `json:"x"`
}

// post issues one POST /v1/multiply the way a real client does: encode the
// request, round-trip it, decode the product.
func post(client *http.Client, url string, tr *tracer, id int64, l *lane) (time.Duration, error) {
	t0 := time.Now()
	body, err := json.Marshal(l.wire)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	raw, err := roundTrip(client, url, body)
	t2 := time.Now()
	var out multiplyReply
	if err == nil {
		err = json.Unmarshal(raw, &out)
	}
	t3 := time.Now()
	tr.add(id, "op", "", t0, t3)
	tr.add(id, "edge.client_encode", "op", t0, t1)
	tr.add(id, "http.roundtrip", "op", t1, t2)
	tr.add(id, "edge.client_decode", "op", t2, t3)
	if err == nil && !slices.Equal(out.X, l.wantWire) {
		err = errors.New("product differs from oracle")
	}
	tr.add(id, "verify", "", t3, time.Now())
	return t3.Sub(t0), err
}

func roundTrip(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// ---- edge_hot, edge_cold ----

type edgeLive struct {
	*edge
	lanes    []*lane // requested round-robin; the index runs on across slices
	next     int
	cold     bool
	storeDir string
	firstErr error
}

func (w *edgeLive) op(tr *tracer) (time.Duration, int, int) {
	l := w.lanes[w.next%len(w.lanes)]
	w.next++
	d, err := post(w.client, w.web.base+"/v1/multiply", tr, tr.nextOp(), l)
	if err != nil {
		if w.firstErr == nil {
			w.firstErr = err
		}
		return d, 0, 1
	}
	return d, 0, 0
}

func (w *edgeLive) check(t *tally) []string {
	var bad []string
	expect := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s = %d, want %d", what, got, want))
		}
	}
	expect("client connections", w.dials.Load(), 1)
	expect("serve/compiles over timed ops", t.counters[service.MetricCompiles], 0)
	if w.cold {
		expect("cache/hits over timed ops", t.counters[service.MetricCacheHits], 0)
		expect("store/hits over timed ops", t.counters[planstore.MetricHits], int64(t.ops))
	} else {
		expect("cache/size", int64(w.srv.Cache().Len()), int64(w.srv.Config().CacheSize))
		expect("cache/misses over timed ops", t.counters[service.MetricCacheMisses], 0)
	}
	if w.firstErr != nil {
		bad = append(bad, "first failed op: "+w.firstErr.Error())
	}
	return bad
}

func (w *edgeLive) close() {
	w.edge.close()
	if w.storeDir != "" {
		os.RemoveAll(w.storeDir)
	}
}

// defaultCacheSize is the plan-cache capacity a zero-valued service.Config
// resolves to, read from the program so the workloads follow its default.
func defaultCacheSize() int {
	srv := service.NewServer(service.Config{})
	defer srv.Close()
	return srv.Config().CacheSize
}

func edgeHotInputs(seed int64, _ string) (setupFunc, error) {
	structs, err := structures(engineN, seed, defaultCacheSize(), 1, valueSets)
	if err != nil {
		return nil, err
	}
	return func(lap func()) (live, error) {
		e, err := startEdge(service.Config{}, false)
		if err != nil {
			return nil, err
		}
		lap()
		w := &edgeLive{edge: e}
		for i := range structs[0].lanes {
			w.lanes = append(w.lanes, &structs[0].lanes[i])
		}
		// The residents fill the plan cache through the serving API, then
		// the hot structure is requested over the wire once per value set.
		if err := e.prepareAll(structs[1:], lap); err != nil {
			w.close()
			return nil, err
		}
		if err := w.warm(lap); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}, nil
}

// warm requests every lane once.
func (w *edgeLive) warm(lap func()) error {
	for i := range w.lanes {
		if _, _, failed := w.op(nil); failed > 0 {
			return fmt.Errorf("warm op %d: %w", i, w.firstErr)
		}
		lap()
	}
	return nil
}

func edgeColdInputs(seed int64, dir string) (setupFunc, error) {
	count := defaultCacheSize() * 3 / 2
	structs, err := structures(engineN, seed, count, count, 1)
	if err != nil {
		return nil, err
	}
	return func(lap func()) (live, error) {
		storeDir, err := os.MkdirTemp(dir, "planstore-")
		if err != nil {
			return nil, err
		}
		ms := obsv.NewCounterSet()
		store, err := planstore.Open(storeDir, 0, ms)
		if err != nil {
			os.RemoveAll(storeDir)
			return nil, err
		}
		// A populated store behind a fresh server is the warm-restart
		// deployment: the plans were compiled and written by an earlier
		// process, this one only ever decodes them.
		for k, s := range structs {
			p, err := s.prepare()
			if err == nil {
				var fp string
				if fp, err = s.fingerprint(); err == nil {
					err = store.Put(fp, p)
				}
			}
			if err != nil {
				os.RemoveAll(storeDir)
				return nil, fmt.Errorf("store structure %d: %w", k, err)
			}
			lap()
		}
		e, err := startEdge(service.Config{Metrics: ms, Store: store}, false)
		if err != nil {
			os.RemoveAll(storeDir)
			return nil, err
		}
		lap()
		w := &edgeLive{edge: e, cold: true, storeDir: storeDir}
		for _, s := range structs {
			w.lanes = append(w.lanes, &s.lanes[0])
		}
		// One pass over every structure leaves the cache full of the most
		// recent ones, so the next request in order is always the evicted one.
		if err := w.warm(lap); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}, nil
}

// ---- stream_hot ----

type streamLive struct {
	*edge
	session  *stream.Client
	cancel   context.CancelFunc
	hot      []*structure // one per burst in turn: request and reply sizes vary with the structure
	bursts   int
	seq      int64
	firstErr error
	// Observed on traced ops only, µs.
	firstResult, laneLatency []float64
}

func streamHotInputs(seed int64, _ string) (setupFunc, error) {
	structs, err := structures(streamN, seed, defaultCacheSize(), streamStructures, rotationSets)
	if err != nil {
		return nil, err
	}
	return func(lap func()) (live, error) {
		ms := obsv.NewCounterSet()
		e, err := startEdge(service.Config{BatchAdaptive: true, Metrics: ms}, true)
		if err != nil {
			return nil, err
		}
		lap()
		if err := e.prepareAll(structs[streamStructures:], lap); err != nil {
			e.close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		session, err := stream.Dial(ctx, e.web.base, e.client)
		if err != nil {
			cancel()
			e.close()
			return nil, err
		}
		lap()
		w := &streamLive{edge: e, session: session, cancel: cancel, hot: structs[:streamStructures]}
		for range w.hot {
			if _, _, failed := w.op(nil); failed > 0 {
				w.close()
				return nil, fmt.Errorf("warm burst: %d lanes failed: %w", failed, w.firstErr)
			}
			lap()
		}
		return w, nil
	}, nil
}

func (w *streamLive) op(tr *tracer) (time.Duration, int, int) {
	id := tr.nextOp()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var (
		calls     [burstLanes]*stream.Call
		submitted [burstLanes]time.Time
		arrived   [burstLanes]time.Time
		frames    [burstLanes]stream.Frame
		errs      [burstLanes]error
		waiters   sync.WaitGroup
	)
	wait := func(i int) {
		frames[i], errs[i] = calls[i].Wait(ctx)
		arrived[i] = time.Now()
	}
	lanes := w.hot[w.bursts%len(w.hot)].lanes
	w.bursts++
	t0 := time.Now()
	for i := range calls {
		l := &lanes[i%len(lanes)]
		w.seq++
		submitted[i] = time.Now()
		calls[i], errs[i] = w.session.Submit(strconv.FormatInt(w.seq, 10), l.wire)
		tr.add(id, "stream.submit", "op", submitted[i], time.Now())
		if tr != nil && errs[i] == nil {
			// A traced burst stamps every result as it arrives, while later
			// lanes are still being submitted: one waiter per call.
			waiters.Add(1)
			go func() {
				defer waiters.Done()
				wait(i)
			}()
		}
	}
	t1 := time.Now()
	if tr != nil {
		waiters.Wait()
	} else {
		for i := range calls {
			if errs[i] == nil {
				wait(i)
			}
		}
	}
	t2 := time.Now()
	tr.add(id, "stream.wait", "op", t1, t2)
	tr.add(id, "op", "", t0, t2)

	failed := 0
	first := t2
	for i := range calls {
		l := &lanes[i%len(lanes)]
		err := errs[i]
		switch {
		case err != nil:
		case frames[i].Type != stream.TypeResult:
			err = fmt.Errorf("error frame %d: %s", frames[i].Code, frames[i].Error)
		case !slices.Equal(frames[i].X, l.wantWire):
			err = errors.New("product differs from oracle")
		}
		if err != nil {
			failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		if arrived[i].Before(first) {
			first = arrived[i]
		}
		if tr != nil {
			w.laneLatency = append(w.laneLatency, float64(arrived[i].Sub(submitted[i]))/1e3)
		}
	}
	tr.add(id, "verify", "", t2, time.Now())
	if tr != nil {
		w.firstResult = append(w.firstResult, float64(first.Sub(t0))/1e3)
	}
	return t2.Sub(t0), 0, failed
}

func (w *streamLive) check(t *tally) []string {
	var bad []string
	if got := w.dials.Load(); got != 1 {
		bad = append(bad, fmt.Sprintf("client connections = %d, want 1", got))
	}
	if got := t.counters[stream.MetricResults]; got != int64(t.lanes) {
		bad = append(bad, fmt.Sprintf("stream/results over timed ops = %d, want %d lanes", got, t.lanes))
	}
	if w.firstErr != nil {
		bad = append(bad, "first failed lane: "+w.firstErr.Error())
	}
	return bad
}

func (w *streamLive) close() {
	_ = w.session.Close() // outstanding lanes were all waited for; the socket goes next
	w.cancel()
	w.edge.close()
}

// ---- mesh_tcp ----

// meshLive rotates over the same structures as the engine workloads, for
// the same reason: rounds, and with them wire bytes and barrier waits, vary
// from structure to structure.
type meshLive struct {
	structs []*structure
	preps   []*core.Prepared
	meshes  []*dist.Mesh
	stop    func()
	turns   turns
	// What the model charges the walks made so far: rounds that carried
	// messages and 8 bytes per message, from the ranks' merged statistics.
	netRounds, modelBytes int64
	// moved remembers the wire bytes the first op on each (structure, value
	// set) moved: the walk is deterministic, so a repeat must move as many.
	moved    map[[2]int]int64
	repeats  int
	drift    string
	firstErr error
}

func meshInputs(seed int64, _ string) (setupFunc, error) {
	structs, err := structures(engineN, seed, engineStructures, engineStructures, rotationSets)
	if err != nil {
		return nil, err
	}
	return func(lap func()) (live, error) {
		preps, err := compileAndWarm(structs, lap)
		if err != nil {
			return nil, err
		}
		meshes, stop, err := dist.NewLocalMesh(meshRanks)
		if err != nil {
			return nil, err
		}
		lap()
		w := &meshLive{
			structs: structs, preps: preps, meshes: meshes, stop: stop,
			turns: turns{structures: len(structs), block: meshBlockOps}, moved: map[[2]int]int64{},
		}
		for k := range structs {
			if _, failed := w.walk(nil, k, 0); failed > 0 {
				w.close()
				return nil, fmt.Errorf("warm structure %d: %w", k, w.firstErr)
			}
			lap()
		}
		return w, nil
	}, nil
}

func (w *meshLive) op(tr *tracer) (time.Duration, int, int) {
	class, set := w.turns.next()
	elapsed, failed := w.walk(tr, class, set)
	return elapsed, class, failed
}

// walk multiplies one value set of one structure on all three ranks.
func (w *meshLive) walk(tr *tracer, class, set int) (time.Duration, int) {
	id := tr.nextOp()
	l, prep := &w.structs[class].lanes[set], w.preps[class]
	before := w.wireBytes()
	var (
		xs    [meshRanks]*matrix.Sparse
		stats [meshRanks]lbm.Stats
		errs  [meshRanks]error
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	for rk := range w.meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var rep *core.Report
			xs[rk], rep, errs[rk] = prep.MultiplyOpts(l.a, l.b, core.ExecOpts{Transport: w.meshes[rk]})
			tr.add(id, "mesh.multiply", "op", start, time.Now())
			if errs[rk] == nil {
				stats[rk] = rep.Stats
			}
		}()
	}
	wg.Wait()
	t1 := time.Now()
	tr.add(id, "op", "", t0, t1)

	err := errors.Join(errs[:]...)
	if err == nil {
		// Ranks return disjoint partial products; their union is the product.
		got := matrix.NewSparse(l.want.N, countRing)
		for _, x := range xs {
			for i, row := range x.Rows {
				for _, c := range row {
					got.Set(i, int(c.Col), c.Val)
				}
			}
		}
		if !matrix.Equal(got, l.want) {
			err = errors.New("merged product differs from oracle")
		}
		bytes, rounds := modelVolume(lbm.MergeStats(stats[:]...))
		w.modelBytes += bytes
		w.netRounds += rounds
	}
	tr.add(id, "verify", "", t1, time.Now())
	moved, key := w.wireBytes()-before, [2]int{class, set}
	if first, seen := w.moved[key]; !seen {
		w.moved[key] = moved
	} else {
		w.repeats++
		if moved != first && w.drift == "" {
			w.drift = fmt.Sprintf("structure %d value set %d moved %d wire bytes, then %d", class, set, first, moved)
		}
	}
	if err != nil {
		if w.firstErr == nil {
			w.firstErr = err
		}
		return t1.Sub(t0), 1
	}
	return t1.Sub(t0), 0
}

func (w *meshLive) wireBytes() int64 {
	var sent int64
	for _, m := range w.meshes {
		sent += m.Counters().Get(dist.CounterBytesSent)
	}
	return sent
}

// Counters the harness keeps beside the mesh's own.
const (
	meshNetRounds  = "bench/net_rounds"
	meshModelBytes = "bench/model_bytes"
)

// counters sums the transport counters of the three endpoints.
func (w *meshLive) counters() map[string]int64 {
	sum := map[string]int64{meshNetRounds: w.netRounds, meshModelBytes: w.modelBytes}
	for _, m := range w.meshes {
		for k, v := range m.Counters().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

func (w *meshLive) check(t *tally) []string {
	var bad []string
	if t.wire <= 0 {
		bad = append(bad, "no wire bytes over timed ops")
	}
	if w.repeats == 0 {
		bad = append(bad, "no walk was repeated, so wire bytes were never compared")
	}
	if w.drift != "" {
		bad = append(bad, w.drift)
	}
	if w.firstErr != nil {
		bad = append(bad, "first failed op: "+w.firstErr.Error())
	}
	return bad
}

func (w *meshLive) close() { w.stop() }
