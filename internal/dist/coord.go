package dist

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
)

// PartitionModulo and PartitionBalanced name the partition strategies a
// coordinated run can request (RunConfig.Partition, `lbmm run -partition`).
const (
	PartitionModulo   = "modulo"
	PartitionBalanced = "balanced"
)

// RunConfig describes one coordinated distributed multiplication.
type RunConfig struct {
	// Workers are the worker addresses; worker i runs rank i. At least 2.
	Workers []string
	// Prep is the prepared multiplication to distribute (compiled engine —
	// the envelope only carries the compiled form).
	Prep *core.Prepared
	// A, B are the value sets; N their dimension; Ring the semiring name
	// the workers resolve (matrix.RingByName). For a batched run set As/Bs
	// instead: lane l computes As[l]·Bs[l] through one shared mesh walk.
	// Exactly one of (A, B) and (As, Bs) must be set.
	A, B   *matrix.Sparse
	As, Bs []*matrix.Sparse
	N      int
	Ring   string
	// Partition selects node ownership: "" or PartitionModulo for the
	// node-count map, PartitionBalanced to bin nodes by the per-node
	// SendLoad/RecvLoad of the compiled plan (greedy LPT, BalancedTable).
	// Table, when non-nil, overrides both with an explicit assignment.
	Partition string
	Table     []uint16
	// Job names the run on the wire; "" draws a random ID.
	Job string
	// AuthToken is the fleet's shared secret, sent in every hello frame.
	// Workers started with -auth-token reject hellos that do not carry it.
	AuthToken string
	// DialTimeout bounds the per-worker dial retry window (0 means 15s);
	// ResultTimeout the wait for each worker's result frame (0 means 120s).
	DialTimeout   time.Duration
	ResultTimeout time.Duration
}

// RunResult is the merged outcome of a distributed multiplication.
type RunResult struct {
	// Xs holds the full product of every lane (len 1 for a scalar run), each
	// merged from the disjoint per-rank partials.
	Xs []*matrix.Sparse
	// Stats is the whole-run view (lbm.MergeStats over the partitions);
	// PerRank keeps each worker's own partition.
	Stats   lbm.Stats
	PerRank []lbm.Stats
	// Counters sums every worker's transport and plan-cache counters
	// (net/bytes_sent, net/round_ns, net/flushes, dist/plan_hits,
	// dist/plan_misses); PerRankCounters keeps each worker's own set, so a
	// caller can see the per-rank communication balance the partition
	// achieved.
	Counters        map[string]int64
	PerRankCounters []map[string]int64
	// Table is the node→rank assignment the run used (nil = modulo).
	Table []uint16
}

// Run coordinates one distributed multiplication: it ships the prepared
// plan and the values to every worker, waits for all partial results, and
// merges them. A typed fault detected by the workers comes back as the
// *lbm.ErrFault itself (all ranks must agree on it — the walk is
// deterministic and faults strike before any frame leaves a sender).
func Run(cfg RunConfig) (*RunResult, error) {
	if len(cfg.Workers) < 2 {
		return nil, fmt.Errorf("dist: a distributed run needs at least 2 workers, got %d", len(cfg.Workers))
	}
	as, bs := cfg.As, cfg.Bs
	if cfg.A != nil || cfg.B != nil {
		if as != nil || bs != nil {
			return nil, fmt.Errorf("dist: run takes either A/B or As/Bs, not both")
		}
		as, bs = []*matrix.Sparse{cfg.A}, []*matrix.Sparse{cfg.B}
	}
	if cfg.Prep == nil || len(as) == 0 || len(as) != len(bs) {
		return nil, fmt.Errorf("dist: run needs a prepared plan and matching value-set lanes")
	}
	for l := range as {
		if as[l] == nil || bs[l] == nil {
			return nil, fmt.Errorf("dist: run lane %d is missing a value set", l)
		}
	}
	r, err := matrix.RingByName(cfg.Ring)
	if err != nil {
		return nil, err
	}
	table := cfg.Table
	if table == nil {
		switch cfg.Partition {
		case "", PartitionModulo:
		case PartitionBalanced:
			send, recv := cfg.Prep.NodeLoads()
			if send == nil {
				return nil, fmt.Errorf("dist: balanced partition needs a compiled plan with a load profile")
			}
			table = BalancedTable(send, recv, len(cfg.Workers))
		default:
			return nil, fmt.Errorf("dist: unknown partition %q (want %q or %q)", cfg.Partition, PartitionModulo, PartitionBalanced)
		}
	}
	if err := ValidateTable(table, len(cfg.Workers)); err != nil {
		return nil, err
	}
	job := cfg.Job
	if job == "" {
		var raw [8]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return nil, err
		}
		job = hex.EncodeToString(raw[:])
	}
	dialTO := cfg.DialTimeout
	if dialTO <= 0 {
		dialTO = 15 * time.Second
	}
	resultTO := cfg.ResultTimeout
	if resultTO <= 0 {
		resultTO = 120 * time.Second
	}

	var plan bytes.Buffer
	if err := cfg.Prep.Encode(&plan); err != nil {
		return nil, err
	}
	fp, err := cfg.Prep.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("dist: plan fingerprint: %w", err)
	}
	aVals := make([][]wireVal, len(as))
	bVals := make([][]wireVal, len(bs))
	for l := range as {
		aVals[l], bVals[l] = entriesOf(as[l]), entriesOf(bs[l])
	}
	// Serialize the lane values exactly once: every rank's job frame carries
	// the same payload, and only Rank differs between frames.
	lanes, err := encodeLanes(aVals, bVals)
	if err != nil {
		return nil, err
	}

	workers := len(cfg.Workers)
	results := make([]*resultFrame, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for rk, addr := range cfg.Workers {
		wg.Add(1)
		go func(rk int, addr string) {
			defer wg.Done()
			results[rk], errs[rk] = runRank(cfg, job, rk, addr, table, fp, plan.Bytes(), lanes, dialTO, resultTO)
		}(rk, addr)
	}
	wg.Wait()
	for rk, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dist: rank %d (%s): %w", rk, cfg.Workers[rk], err)
		}
	}

	// Every rank walks the identical plan, so fault detection is all-or-none
	// and the provenance must agree rank for rank.
	var fault *lbm.ErrFault
	for rk, rf := range results {
		switch {
		case rf.Err != "":
			return nil, fmt.Errorf("dist: rank %d failed: %s", rk, rf.Err)
		case rf.Fault != nil && fault == nil:
			fault = rf.Fault
		case rf.Fault != nil && *rf.Fault != *fault:
			return nil, fmt.Errorf("dist: ranks disagree on the detected fault: %+v vs %+v", fault, rf.Fault)
		case rf.Fault == nil && fault != nil:
			return nil, fmt.Errorf("dist: rank %d saw no fault while others detected %+v", rk, fault)
		}
	}
	if fault != nil {
		// Verify the trailing ranks agreed too (the loop above only checks
		// ranks after the first detection); then surface the typed fault.
		for rk, rf := range results {
			if rf.Fault == nil {
				return nil, fmt.Errorf("dist: rank %d saw no fault while others detected %+v", rk, fault)
			}
		}
		return nil, fault
	}

	out := &RunResult{
		Xs:              make([]*matrix.Sparse, len(as)),
		PerRank:         make([]lbm.Stats, workers),
		Counters:        make(map[string]int64),
		PerRankCounters: make([]map[string]int64, workers),
		Table:           table,
	}
	for l := range out.Xs {
		out.Xs[l] = matrix.NewSparse(cfg.N, r)
	}
	for rk, rf := range results {
		if len(rf.X) != len(as) {
			return nil, fmt.Errorf("dist: rank %d returned %d lanes, want %d", rk, len(rf.X), len(as))
		}
		for l, lane := range rf.X {
			for _, e := range lane {
				out.Xs[l].Set(int(e.I), int(e.J), e.V)
			}
		}
		out.PerRank[rk] = rf.Stats
		out.PerRankCounters[rk] = rf.Counters
		for k, v := range rf.Counters {
			out.Counters[k] += v
		}
	}
	out.Stats = lbm.MergeStats(out.PerRank...)
	return out, nil
}

// runRank ships the job to one worker and reads back its partial result.
func runRank(cfg RunConfig, job string, rk int, addr string, table []uint16, fp string, plan, lanes []byte, dialTO, resultTO time.Duration) (*resultFrame, error) {
	conn, err := dialRetry(addr, dialTO)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := writeFrame(conn, &helloFrame{Kind: "job", Job: job, Token: cfg.AuthToken}); err != nil {
		return nil, err
	}
	jf := jobFrame{
		Job:         job,
		Rank:        rk,
		Workers:     len(cfg.Workers),
		Peers:       cfg.Workers,
		Table:       table,
		Ring:        cfg.Ring,
		N:           cfg.N,
		Fingerprint: fp,
		Prepared:    plan,
		Lanes:       lanes,
	}
	// A worker that refuses the hello replies and closes without reading the
	// job frame, so this write can fail with a reset while the refusal is
	// already waiting to be read: a failed write still reads the reply, and
	// reports the write error only when there is none.
	werr := writeFrame(conn, &jf)
	conn.SetReadDeadline(time.Now().Add(resultTO))
	var rf resultFrame
	if err := readFrame(conn, &rf, maxFrameBytes); err != nil {
		if werr != nil {
			return nil, werr
		}
		return nil, fmt.Errorf("waiting for result: %w", err)
	}
	if rf.Job != job {
		return nil, fmt.Errorf("mismatched result frame: job %s", rf.Job)
	}
	// An error reply may predate rank assignment (an unauthorized hello is
	// refused before the job frame ships); only successful results must
	// echo the rank they computed.
	if rf.Err == "" && rf.Rank != rk {
		return nil, fmt.Errorf("mismatched result frame: rank %d, want %d", rf.Rank, rk)
	}
	return &rf, nil
}
