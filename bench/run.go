package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// config is one run of the harness.
type config struct {
	seed      int64
	workloads []string // run in this order in every round
	rounds    int      // R: timed slices per workload
	seconds   float64  // timed seconds per workload, split evenly over the rounds
	trace     bool     // after the rounds, make the traced pass over all six workloads
	// calls is the least number of traced ops of each workload and of calls
	// of each layer probe; a probe also goes on for at least probeSpread.
	calls       int
	probeSpread time.Duration
	outDir      string // scratch (plan stores) and trace.json
}

const (
	warmOps = 3 // untimed ops before each timed slice
	// quiet is the percentile of per-lane samples and probe calls that is
	// reported: the 10th, below the share of samples a contended machine
	// slows (README, "How a run is scheduled").
	quiet = 10
)

// laneSamples holds per-lane wall times, µs, by class: [s] are the samples
// of the timed ops on structure s of a rotating workload, [0] all samples of
// a workload that does not rotate.
type laneSamples [][]float64

func (ls *laneSamples) add(class int, us float64) {
	for len(*ls) <= class {
		*ls = append(*ls, nil)
	}
	(*ls)[class] = append((*ls)[class], us)
}

// laneUS is the quiet-machine cost of a lane: the 10th percentile of each
// structure's samples, averaged over the structures so that a rotating
// workload reports their mean cost, not its cheapest structure's. Without
// rotation it is the 10th percentile of all samples.
func (ls laneSamples) laneUS() float64 {
	sum, structures := 0.0, 0
	for _, s := range ls {
		if len(s) > 0 {
			sum += percentile(s, quiet)
			structures++
		}
	}
	return sum / float64(structures)
}

func (ls laneSamples) pooled() []float64 {
	var all []float64
	for _, s := range ls {
		all = append(all, s...)
	}
	return all
}

// tally pools what the timed slices of one workload measured.
type tally struct {
	samples laneSamples
	// reference are the untraced ops of a traced slice, which alternate
	// with its traced ones.
	reference laneSamples
	busy      time.Duration // sum of the timed ops
	ops       int
	lanes     int
	failed    int
	alloc     uint64 // runtime TotalAlloc over the slices, process-wide
	gcCycles  uint32
	wire      int64
	counters  map[string]int64 // program counters, summed deltas over the slices
}

// slice collects the heap, runs the untimed warm-up ops and then times ops
// back to back from this one goroutine for the given wall length, and on
// until minOps are done. With a tracer every second op is traced and the
// others are the reference its overhead is taken against: neighbours in
// time, on the same structure.
func (t *tally) slice(w live, lanesPerOp int, length time.Duration, minOps int, tr *tracer) {
	runtime.GC()
	for i := 0; i < warmOps; i++ {
		_, _, failed := w.op(nil)
		t.failed += failed
	}
	var before, after runtime.MemStats
	wire, counters := w.wireBytes(), w.counters()
	runtime.ReadMemStats(&before)
	for start, n := time.Now(), 0; time.Since(start) < length || n < minOps; n++ {
		into, opTracer := &t.samples, tr
		if tr != nil && n%2 == 0 {
			into, opTracer = &t.reference, nil
		}
		elapsed, class, failed := w.op(opTracer)
		into.add(class, float64(elapsed.Nanoseconds())/1e3/float64(lanesPerOp))
		t.busy += elapsed
		t.ops++
		t.lanes += lanesPerOp
		t.failed += failed
	}
	runtime.ReadMemStats(&after)
	t.alloc += after.TotalAlloc - before.TotalAlloc
	t.gcCycles += after.NumGC - before.NumGC
	t.wire += w.wireBytes() - wire
	if t.counters == nil {
		t.counters = map[string]int64{}
	}
	for k, v := range w.counters() {
		t.counters[k] += v - counters[k]
	}
}

// running is one workload during a run: its setup, the live copy the
// slices drive and everything measured so far.
type running struct {
	spec   spec
	setup  setupFunc
	live   live
	setups [][]float64 // of every setup made, the wall seconds of each step
	tally  tally
}

func start(sp spec, cfg config) (*running, error) {
	setup, err := sp.inputs(cfg.seed, cfg.outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", sp.name, err)
	}
	r := &running{spec: sp, setup: setup}
	if r.live, err = r.timedSetup(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *running) timedSetup() (live, error) {
	var steps []float64
	last := time.Now()
	lap := func() {
		now := time.Now()
		steps = append(steps, now.Sub(last).Seconds())
		last = now
	}
	w, err := r.setup(lap)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", r.spec.name, err)
	}
	lap() // whatever followed the last step
	if len(r.setups) > 0 && len(steps) != len(r.setups[0]) {
		w.close()
		return nil, fmt.Errorf("%s: setup took %d steps, then %d", r.spec.name, len(r.setups[0]), len(steps))
	}
	r.setups = append(r.setups, steps)
	return w, nil
}

// setupSeconds is the set-up time of a quiet machine: every step's fastest
// run among the setups made, summed. A whole set-up is seconds of mixed
// work, so its plain wall time follows the machine's contention three times
// as closely as lane_us does; taking the minimum step by step is the same
// quiet-machine reading lane_us takes op by op.
func (r *running) setupSeconds() float64 {
	total := 0.0
	for step := range r.setups[0] {
		best := r.setups[0][step]
		for _, s := range r.setups[1:] {
			best = min(best, s[step])
		}
		total += best
	}
	return total
}

// shadowSetup sets the workload up again from the same inputs, beside the
// live copy, and discards the result: setup_s is sampled at three points of
// a run so one slow phase of the machine cannot own it.
func (r *running) shadowSetup() error {
	w, err := r.timedSetup()
	if err != nil {
		return err
	}
	w.close()
	return nil
}

func (r *running) result() workloadResult {
	t := &r.tally
	pooled := t.samples.pooled()
	out := workloadResult{
		Name: r.spec.name,
		Ops:  t.ops, Lanes: t.lanes, Failed: t.failed,
		EndToEnd: map[string]metric{
			"lane_us":              {t.samples.laneUS(), "us", t.ops},
			"wire_bytes_per_lane":  {float64(t.wire) / float64(t.lanes), "bytes", t.lanes},
			"alloc_bytes_per_lane": {float64(t.alloc) / float64(t.lanes), "bytes", t.lanes},
			"setup_s":              {r.setupSeconds(), "s", len(r.setups)},
		},
		Info: map[string]metric{
			"lane_p50_us": {percentile(pooled, 50), "us", t.ops},
			"lane_p99_us": {percentile(pooled, 99), "us", t.ops},
			"lanes_per_s": {float64(t.lanes) / t.busy.Seconds(), "1/s", t.lanes},
		},
		Violations: r.live.check(t),
	}
	return out
}

// run executes one configuration end to end.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Schema: "lbmm.bench.v1", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Rounds: cfg.rounds, SliceSeconds: cfg.seconds / float64(cfg.rounds),
	}
	var selected []*running
	defer func() {
		for _, r := range selected {
			r.live.close()
		}
	}()
	for _, name := range cfg.workloads {
		sp, ok := specByName(name)
		if !ok || slices.ContainsFunc(selected, func(r *running) bool { return r.spec.name == name }) {
			return nil, fmt.Errorf("unknown or repeated workload %q", name)
		}
		r, err := start(sp, cfg)
		if err != nil {
			return nil, err
		}
		selected = append(selected, r)
	}

	slice := time.Duration(res.SliceSeconds * float64(time.Second))
	for round := 1; round <= cfg.rounds; round++ {
		for _, r := range selected {
			r.tally.slice(r.live, r.spec.lanesPerOp, slice, 0, nil)
		}
		if round == (cfg.rounds+1)/2 || round == cfg.rounds {
			for _, r := range selected {
				if err := r.shadowSetup(); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, r := range selected {
		res.Workloads = append(res.Workloads, r.result())
		r.live.close()
	}
	selected = nil

	if cfg.trace {
		tr := newTracer()
		if err := tracedPass(cfg, tr, res); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
