package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/control"
	"lbmm/internal/core"
	"lbmm/internal/dist"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/planstore"
	"lbmm/internal/service"
	"lbmm/internal/shard"
	"lbmm/internal/stream"
)

// tracedCounts is what the traced pass attempted, beside the timed slices.
type tracedCounts struct {
	Lanes      int      `json:"lanes"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
}

// prober times calls into public functions of one layer from outside: one
// untimed call, then at least calls timed ones, going on until spread has
// passed so that a cheap function is not judged by one burst of contention.
// Each call is recorded as a span; the metric is the same low percentile
// lane_us uses.
type prober struct {
	tr     *tracer
	calls  int
	spread time.Duration
	out    map[string]metric
	err    error
}

// probe is one timed call into the program.
type probe struct {
	name string
	f    func() error
}

// together times several probes in turns, a call of each and then again, so
// that a difference taken between them sees one state of the machine.
func (p *prober) together(probes ...probe) []metric {
	samples := make([][]float64, len(probes))
	begin := time.Now()
	for i := 0; (i <= p.calls || time.Since(begin) < p.spread) && p.err == nil; i++ {
		for k, pr := range probes {
			id := p.tr.nextOp()
			t0 := time.Now()
			err := pr.f()
			t1 := time.Now()
			if err != nil && p.err == nil {
				p.err = fmt.Errorf("probe %s: %w", pr.name, err)
			}
			if i > 0 {
				p.tr.add(id, pr.name, "", t0, t1)
				samples[k] = append(samples[k], float64(t1.Sub(t0).Nanoseconds())/1e3)
			}
		}
	}
	out := make([]metric, len(probes))
	for k := range probes {
		out[k] = metric{percentile(samples[k], quiet), "us", len(samples[k])}
	}
	return out
}

func (p *prober) time(name string, f func() error) metric {
	return p.together(probe{name, f})[0]
}

// us reports the probe as a metric in µs per call.
func (p *prober) us(name string, f func() error) float64 {
	m := p.time(name, f)
	p.out[name] = m
	return m.Value
}

// ns reports a probe whose f makes 1000 calls: µs per 1000 is ns per call.
func (p *prober) ns(name string, f func()) {
	m := p.time(name, func() error {
		for i := 0; i < 1000; i++ {
			f()
		}
		return nil
	})
	m.Unit = "ns"
	p.out[name] = m
}

func (p *prober) count(name string, v float64, unit string) {
	p.out[name] = metric{Value: v, Unit: unit}
}

// share is part/whole, 0 when nothing happened.
func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layers is the traced pass in progress: the probes of one workload read
// what its slices measured and leave behind what later ledgers need.
type layers struct {
	*prober
	cfg     config
	ledgers map[string][]ledgerRow
	// Of the workload being probed: what its slices of the pass measured
	// (counters, ops, busy time) and the lane_us of their traced ops.
	pass   *tally
	laneUS float64

	// Probe results later workloads' ledgers reuse, µs.
	coreMultiply, fingerprint, seam float64
	clientEncode, clientDecode      float64
	transport, handlerSelf          float64
	wireDecode, wireEncode          float64
}

// tracedOps is how many of the pass's ops on the workload were traced: every
// second one.
func (ly *layers) tracedOps() int { return ly.pass.ops / 2 }

// probes lists what the traced pass measures while each workload is the one
// alive; they run in the order of specs.
var probes = map[string]func(*layers, live) error{
	"engine_scalar":  (*layers).engineScalar,
	"engine_batch16": (*layers).engineBatch,
	"edge_hot":       (*layers).edgeHot,
	"edge_cold":      (*layers).edgeCold,
	"stream_hot":     (*layers).streamHot,
	"mesh_tcp":       (*layers).meshTCP,
}

// tracedSlices is how many timed slices the traced pass gives a workload.
const tracedSlices = 4

// tracedPass measures every per-layer metric. The six workloads take turns
// being the only one alive, as in an untraced run of that workload: each is
// set up and runs slices (together --seconds over all six) in which traced
// ops alternate with untraced reference ops, so that tracing overhead is
// taken between neighbours in time; then its layer probes run on its own
// inputs and close its ledger.
func tracedPass(cfg config, tr *tracer, res *result) error {
	length := time.Duration(cfg.seconds / float64(len(specs)*tracedSlices) * float64(time.Second))
	ly := &layers{
		prober:  &prober{tr: tr, calls: cfg.calls, spread: cfg.probeSpread, out: map[string]metric{}},
		cfg:     cfg,
		ledgers: map[string][]ledgerRow{},
	}
	res.Traced = &tracedCounts{}
	for _, sp := range specs {
		r, err := start(sp, cfg)
		if err != nil {
			return err
		}
		// At least calls traced ops and as many reference ops; on a rotating
		// workload a twentieth of that on every structure, so that the low
		// percentile of each has samples beneath it.
		minOps := 2 * max(cfg.calls, cfg.calls/20*sp.structures)
		pass := &tally{}
		tr.enter(sp.name)
		for i := 0; i < tracedSlices; i++ {
			pass.slice(r.live, sp.lanesPerOp, length, (minOps+tracedSlices-1)/tracedSlices, tr)
		}
		for _, v := range r.live.check(pass) {
			res.Traced.Violations = append(res.Traced.Violations, sp.name+": "+v)
		}
		res.Traced.Lanes += pass.lanes
		res.Traced.Failed += pass.failed
		ly.pass, ly.laneUS = pass, pass.samples.laneUS()
		ly.out["trace.overhead_share."+sp.name] = metric{ly.laneUS/pass.reference.laneUS() - 1, "share", ly.tracedOps()}
		ly.count("gc.cycles_per_1k_lanes."+sp.name, 1000*float64(pass.gcCycles)/float64(pass.lanes), "count")

		tr.enter("probe")
		err = probes[sp.name](ly, r.live)
		r.live.close()
		if err == nil {
			err = ly.err
		}
		if err != nil {
			return fmt.Errorf("%s: layer probes: %w", sp.name, err)
		}
	}
	res.PerLayer, res.Ledgers = ly.out, ly.ledgers
	return nil
}

// closeLedger adds the sum, the traced lane_us and what the rows leave
// unattributed, and publishes every row as a per-layer metric.
func (ly *layers) closeLedger(name string, rows []ledgerRow) {
	sum := 0.0
	for _, r := range rows {
		sum += r.US
	}
	rows = append(rows, ledgerRow{"sum", sum}, ledgerRow{"lane", ly.laneUS}, ledgerRow{"unattributed", ly.laneUS - sum})
	ly.ledgers[name] = rows
	for _, r := range rows {
		ly.out["ledger."+name+"."+r.Row+"_us"] = metric{r.US, "us", ly.tracedOps()}
	}
}

// engineScalar reports core's multiply from the traced slices, whose op is
// that call on every structure in turn, and probes the rest of core, lbm and
// the shard ring on the first of those structures.
func (ly *layers) engineScalar(w live) error {
	engine := w.(*engineLive)
	s, prep, l := engine.structs[0], engine.preps[0], &engine.structs[0].lanes[0]
	ly.coreMultiply = ly.laneUS
	ly.out["core.multiply_us"] = metric{ly.laneUS, "us", ly.tracedOps()}
	ly.us("core.prepare_us", func() error {
		_, err := s.prepare()
		return err
	})
	ly.fingerprint = ly.us("core.fingerprint_us", func() error {
		_, err := s.fingerprint()
		return err
	})
	var envelope bytes.Buffer
	ly.us("core.envelope_encode_us", func() error {
		envelope.Reset()
		return prep.Encode(&envelope)
	})
	ly.us("core.envelope_decode_us", func() error {
		_, err := core.DecodePrepared(bytes.NewReader(envelope.Bytes()))
		return err
	})
	ly.count("core.envelope_bytes", float64(envelope.Len()), "bytes")

	// The seam's cost is loopback minus direct on the same structure, timed
	// in turns: one structure's multiply time was seen to differ by tens of
	// percent between runs of the same seed.
	var stats lbm.Stats
	seam := ly.together(
		probe{"core.multiply_first", func() error {
			_, _, err := prep.Multiply(l.a, l.b)
			return err
		}},
		probe{"lbm.loopback_multiply_us", func() error {
			_, rep, err := prep.MultiplyOpts(l.a, l.b, core.ExecOpts{Transport: &lbm.Loopback{}})
			if err == nil {
				stats = rep.Stats
			}
			return err
		}},
	)
	ly.out["lbm.loopback_multiply_us"] = seam[1]
	ly.seam = seam[1].Value - seam[0].Value
	modelBytes, netRounds := modelVolume(stats)
	ly.count("lbm.rounds", float64(stats.Rounds), "count")
	ly.count("lbm.net_rounds", float64(netRounds), "count")
	ly.count("lbm.model_bytes_per_lane", float64(modelBytes), "bytes")

	fp, err := s.fingerprint()
	if err != nil {
		return err
	}
	ring := shard.BuildRing([]shard.Member{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}, {ID: "c", Addr: "c:1"}}, 0)
	ly.ns("shard.owner_ns", func() { ring.Owner(fp) })
	return nil
}

// modelVolume is what the low-bandwidth model charges an execution: 8 bytes
// per real message, and the rounds that carried any.
func modelVolume(stats lbm.Stats) (bytes, netRounds int64) {
	for _, b := range stats.RoundBytes {
		bytes += b
		if b > 0 {
			netRounds++
		}
	}
	return bytes, netRounds
}

// engineBatch, too, reports its traced slices: their op is MultiplyBatch.
func (ly *layers) engineBatch(live) error {
	ly.out["core.multiply_batch16_lane_us"] = metric{ly.laneUS, "us", ly.tracedOps()}
	return nil
}

// viaHandler is a probe that serves one POST /v1/multiply of body through h
// on a recorder, no socket.
func viaHandler(h http.Handler, body []byte) func() error {
	return func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
}

// edgeHot probes service, the harness's own side of the edge and the shard
// router with edge_hot's hot request against edge_hot's server.
func (ly *layers) edgeHot(w live) error {
	hot := w.(*edgeLive)
	ctx, l := context.Background(), hot.lanes[0]
	body, err := json.Marshal(l.wire)
	if err != nil {
		return err
	}
	req, err := service.ParseWireMultiply(l.wire)
	if err != nil {
		return err
	}
	// The handler's own share is what is left of it after decode, multiply
	// and encode, and the router's is what it adds to the handler, so these
	// five are timed in turns.
	router := shard.NewRouter(shard.NewNode(shard.Config{ID: "a", Addr: "127.0.0.1:1"}), hot.handler, nil, nil)
	var resp *service.MultiplyResponse
	stages := ly.together(
		probe{"service.wire_decode_us", func() error {
			var wm service.WireMultiply
			if err := json.Unmarshal(body, &wm); err != nil {
				return err
			}
			_, err := service.ParseWireMultiply(&wm)
			return err
		}},
		probe{"service.multiply_us", func() error {
			var err error
			resp, err = hot.srv.Multiply(ctx, req)
			return err
		}},
		probe{"service.wire_encode_us", func() error {
			_, err := json.Marshal(struct {
				X []service.WireEntry `json:"x"`
				service.WireReport
			}{service.WireEntries(resp.X), service.BuildWireReport(resp)})
			return err
		}},
		probe{"service.handler_us", viaHandler(hot.handler, body)},
		probe{"shard.route", viaHandler(router.Handler(), body)},
	)
	if ly.err != nil {
		return ly.err
	}
	ly.out["service.wire_decode_us"], ly.out["service.multiply_us"] = stages[0], stages[1]
	ly.out["service.wire_encode_us"], ly.out["service.handler_us"] = stages[2], stages[3]
	ly.wireDecode, ly.wireEncode = stages[0].Value, stages[2].Value
	multiply, handler := stages[1].Value, stages[3].Value
	ly.handlerSelf = handler - ly.wireDecode - multiply - ly.wireEncode
	ly.out["shard.route_us"] = metric{stages[4].Value - handler, "us", stages[4].Samples}
	ly.us("service.request_fingerprint_us", func() error {
		_, err := service.RequestFingerprint("/v1/multiply", body)
		return err
	})
	c := ly.pass.counters
	ly.count("service.cache_hit_share", share(c[service.MetricCacheHits], c[service.MetricCacheHits]+c[service.MetricCacheMisses]), "share")
	ly.count("service.compiles", float64(c[service.MetricCompiles]), "count")
	ly.count("service.shed", float64(c[service.MetricShed]), "count")
	ly.count("service.errors", float64(c[service.MetricErrors]), "count")

	ly.clientEncode = percentile(ly.tr.durations("edge_hot", "edge.client_encode"), quiet)
	ly.clientDecode = percentile(ly.tr.durations("edge_hot", "edge.client_decode"), quiet)
	ly.out["edge.client_encode_us"] = metric{ly.clientEncode, "us", ly.tracedOps()}
	ly.out["edge.client_decode_us"] = metric{ly.clientDecode, "us", ly.tracedOps()}
	reply, err := roundTrip(hot.client, hot.web.base+"/v1/multiply", body)
	if err != nil {
		return err
	}
	canned, err := serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a failed read shows as a failed round trip
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	}))
	if err != nil {
		return err
	}
	var unused atomic.Int64
	cannedClient := countingClient(&unused, &unused)
	ly.transport = ly.us("edge.http_transport_us", func() error {
		_, err := roundTrip(cannedClient, canned.base+"/v1/multiply", body)
		return err
	})
	cannedClient.CloseIdleConnections()
	canned.close()

	ly.closeLedger("edge_hot", ly.edgeRows(multiply))
	return nil
}

// edgeRows is the ledger of one /v1/multiply request; inside are the rows
// of layers Server.Multiply calls besides the fingerprint and the engine.
func (ly *layers) edgeRows(multiply float64, inside ...ledgerRow) []ledgerRow {
	self := multiply - ly.fingerprint - ly.coreMultiply
	for _, r := range inside {
		self -= r.US
	}
	rows := []ledgerRow{
		{"client_encode", ly.clientEncode},
		{"http_transport", ly.transport},
		{"handler_self", ly.handlerSelf},
		{"wire_decode", ly.wireDecode},
		{"multiply_self", self},
		{"fingerprint", ly.fingerprint},
	}
	rows = append(rows, inside...)
	return append(rows, ledgerRow{"engine", ly.coreMultiply}, ledgerRow{"wire_encode", ly.wireEncode}, ledgerRow{"client_decode", ly.clientDecode})
}

// edgeCold probes the miss path against edge_cold's server and store. The
// handler's own share in its ledger is the one taken on the hot path: the
// code around Server.Multiply is the same.
func (ly *layers) edgeCold(w live) error {
	cold := w.(*edgeLive)
	reqs := make([]*service.MultiplyRequest, len(cold.lanes))
	fps := make([]string, len(cold.lanes))
	for i, l := range cold.lanes {
		var err error
		if reqs[i], err = service.ParseWireMultiply(l.wire); err != nil {
			return err
		}
		if fps[i], err = core.Fingerprint(l.a.Support(), l.b.Support(), reqs[i].Xhat, planOpts); err != nil {
			return err
		}
	}
	// The round-robin index runs on through the probes, so they too always
	// ask for the plan the cache evicted longest ago. The store's read is
	// part of the cold multiply, so the two are timed in turns.
	store := cold.srv.Config().Store
	turn := 0
	miss := ly.together(
		probe{"service.multiply_cold_us", func() error {
			r := reqs[cold.next%len(reqs)]
			cold.next++
			_, err := cold.srv.Multiply(context.Background(), r)
			return err
		}},
		probe{"planstore.get_us", func() error {
			turn++
			_, err := store.Get(fps[turn%len(fps)])
			return err
		}},
	)
	ly.out["service.multiply_cold_us"], ly.out["planstore.get_us"] = miss[0], miss[1]
	multiply, get := miss[0].Value, miss[1].Value
	entries, err := store.List()
	if err != nil || len(entries) != len(fps) {
		return fmt.Errorf("store lists %d entries (%v), want %d", len(entries), err, len(fps))
	}
	ly.count("planstore.entry_bytes", float64(entries[0].Bytes), "bytes")
	c := ly.pass.counters
	ly.count("planstore.hit_share", share(c[planstore.MetricHits], c[planstore.MetricHits]+c[planstore.MetricMisses]), "share")

	// Writes go to a store of their own, so the server's stays as set up.
	dir, err := os.MkdirTemp(ly.cfg.outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := planstore.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	plan, err := store.Get(fps[0])
	if err != nil {
		return err
	}
	ly.us("planstore.put_us", func() error { return scratch.Put(fps[0], plan) })

	ly.closeLedger("edge_cold", ly.edgeRows(multiply, ledgerRow{"store_get", get}))
	return nil
}

// streamHot reads batch, control and stream off stream_hot's server and
// session, and times the n=64 stages a streamed lane crosses for its ledger.
func (ly *layers) streamHot(w live) error {
	session := w.(*streamLive)
	c := ly.pass.counters
	meanLanes := share(c[service.MetricBatchSize+"/sum"], c[service.MetricBatchSize+"/count"])
	ly.count("batch.mean_lanes", meanLanes, "lanes")
	ly.count("batch.wait_us_per_lane", float64(c[service.MetricBatchWaitNs])/1e3/float64(ly.pass.lanes), "us")
	var launches int64
	reasons := []batch.Reason{batch.ReasonFull, batch.ReasonTimeout, batch.ReasonImmediate, batch.ReasonShrink}
	for _, why := range reasons {
		launches += c[service.MetricBatchLaunch+string(why)]
	}
	for _, why := range reasons {
		ly.count("batch.launch_share."+string(why), share(c[service.MetricBatchLaunch+string(why)], launches), "share")
	}
	launched := make(chan struct{})
	coalescer := batch.New(batch.Config{}, func(string, []int, batch.Reason) { launched <- struct{}{} })
	ly.us("batch.submit_to_launch_us", func() error {
		if err := coalescer.Submit("probe", 1); err != nil {
			return err
		}
		<-launched
		return nil
	})
	coalescer.Close()
	controller := control.New(control.Config{})
	ly.ns("control.decide_ns", func() { controller.Decide("probe") })
	ly.count("control.immediate_share", share(c[control.MetricImmediate], c[control.MetricImmediate]+c[control.MetricBatched]), "share")

	submit := percentile(ly.tr.durations("stream_hot", "stream.submit"), quiet)
	ly.out["stream.submit_us"] = metric{submit, "us", ly.tracedOps() * burstLanes}
	ly.out["stream.first_result_us"] = metric{percentile(session.firstResult, quiet), "us", len(session.firstResult)}
	ly.out["stream.lane_latency_p50_us"] = metric{percentile(session.laneLatency, 50), "us", len(session.laneLatency)}
	ly.count("stream.xhat_reuse_share", share(c[stream.MetricXhatReuse], c[stream.MetricSubmits]), "share")
	ly.count("stream.backpressure_share", share(c[stream.MetricBackpressure], c[stream.MetricSubmits]), "share")

	// The stages below feed ledger rows only.
	s := session.hot[0]
	l := &s.lanes[0]
	elided := *l.wire
	elided.Xhat = nil
	submitFrame, err := json.Marshal(stream.Frame{Type: stream.TypeSubmit, ID: "1", Submit: &elided, SameXhat: true})
	if err != nil {
		return err
	}
	req, err := service.ParseWireMultiply(l.wire)
	if err != nil {
		return err
	}
	prep, err := s.prepare()
	if err != nil {
		return err
	}
	k := max(int(math.Round(meanLanes)), 1)
	var as, bs []*matrix.Sparse
	for i := 0; i < k; i++ {
		as, bs = append(as, s.lanes[i%len(s.lanes)].a), append(bs, s.lanes[i%len(s.lanes)].b)
	}
	var resp *service.MultiplyResponse
	var resultFrame []byte
	stages := ly.together(
		probe{"stream.frame_decode", func() error {
			var f stream.Frame
			if err := json.Unmarshal(submitFrame, &f); err != nil {
				return err
			}
			f.Submit.Xhat = l.wire.Xhat
			_, err := service.ParseWireMultiply(f.Submit)
			return err
		}},
		probe{"stream.fingerprint", func() error {
			_, err := s.fingerprint()
			return err
		}},
		probe{"stream.server_multiply", func() error {
			var err error
			resp, err = session.srv.Multiply(context.Background(), req)
			return err
		}},
		probe{"stream.engine", func() error {
			_, _, err := prep.MultiplyBatch(as, bs, core.ExecOpts{})
			return err
		}},
		probe{"stream.frame_encode", func() error {
			report := service.BuildWireReport(resp)
			var err error
			resultFrame, err = json.Marshal(stream.Frame{Type: stream.TypeResult, ID: "1", Ticket: 1, X: service.WireEntries(resp.X), Report: &report})
			return err
		}},
		probe{"stream.client_decode", func() error {
			var f stream.Frame
			return json.Unmarshal(resultFrame, &f)
		}},
	)
	if ly.err != nil {
		return ly.err
	}
	frameDecode, fingerprint, multiply := stages[0].Value, stages[1].Value, stages[2].Value
	engine, frameEncode, clientDecode := stages[3].Value/float64(k), stages[4].Value, stages[5].Value
	ly.closeLedger("stream_hot", []ledgerRow{
		{"client_submit", submit},
		{"frame_decode", frameDecode},
		{"multiply_self", multiply - fingerprint - engine},
		{"fingerprint", fingerprint},
		{"engine", engine},
		{"frame_encode", frameEncode},
		{"client_decode", clientDecode},
	})
	return nil
}

// meshTCP reads dist off mesh_tcp's transport counters, then times mesh
// formation and the coordinator path.
func (ly *layers) meshTCP(w live) error {
	mesh := w.(*meshLive)
	c := ly.pass.counters
	rounds := float64(c[meshNetRounds])
	wirePerRound := float64(c[dist.CounterBytesSent]) / rounds
	modelPerRound := float64(c[meshModelBytes]) / rounds
	roundNS := float64(c[dist.CounterRoundNS]) / meshRanks // every rank sits in the same barriers
	ly.count("dist.wire_bytes_per_round", wirePerRound, "bytes")
	ly.count("dist.model_bytes_per_round", modelPerRound, "bytes")
	ly.count("dist.wire_amplification", wirePerRound/modelPerRound, "ratio")
	ly.count("dist.round_us", roundNS/1e3/rounds, "us")
	ly.count("dist.flushes_per_round", float64(c[dist.CounterFlushes])/rounds, "count")
	ly.us("dist.mesh_form_us", func() error {
		_, stop, err := dist.NewLocalMesh(meshRanks)
		if err == nil {
			stop()
		}
		return err
	})
	if err := ly.jobs(mesh); err != nil {
		return err
	}
	ly.closeLedger("mesh_tcp", []ledgerRow{
		{"engine", ly.coreMultiply},
		{"seam", ly.seam},
		// The barrier counter is a total, not a distribution: its share of
		// the ops' wall time is applied to the quiet-machine lane time.
		{"barrier", roundNS / float64(ly.pass.busy.Nanoseconds()) * ly.laneUS},
	})
	return nil
}

// jobs times the coordinator path: dist.Run of one lane against three
// in-process workers that keep the plan cached.
func (ly *layers) jobs(mesh *meshLive) error {
	var addrs []string
	var listeners []net.Listener
	done := make(chan struct{}, meshRanks)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
		for range listeners {
			<-done
		}
	}()
	for i := 0; i < meshRanks; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
		go func() {
			_ = dist.Serve(ln, dist.WorkerOptions{}) // returns once the listener closes
			done <- struct{}{}
		}()
	}
	l := &mesh.structs[0].lanes[0]
	var wire, hits, lookups int64
	first := true
	ly.us("dist.job_us", func() error {
		out, err := dist.Run(dist.RunConfig{
			Workers: addrs, Prep: mesh.preps[0], A: l.a, B: l.b, N: l.a.N, Ring: countRing.Name(),
		})
		if err != nil {
			return err
		}
		if first { // the untimed call is the one that fills the plan caches
			first = false
			return nil
		}
		wire = out.Counters[dist.CounterBytesSent]
		hits += out.Counters[dist.CounterPlanHits]
		lookups += out.Counters[dist.CounterPlanHits] + out.Counters[dist.CounterPlanMisses]
		return nil
	})
	ly.count("dist.job_wire_bytes", float64(wire), "bytes")
	ly.count("dist.plan_hit_share", share(hits, lookups), "share")
	return nil
}
