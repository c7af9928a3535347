package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/dist"
	"lbmm/internal/matrix"
)

// runWorker runs one worker process: it serves distributed-multiply jobs
// until killed. Owns its flags (dispatched before the generic parse).
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", ":7070", "listen address for jobs and peer connections")
	quiet := fs.Bool("q", false, "suppress per-connection logging")
	peerTO := fs.Duration("peer-timeout", 30*time.Second, "how long a job waits for its mesh to form")
	readTO := fs.Duration("read-timeout", 60*time.Second, "barrier (exchange) deadline T on peer reads and writes: a stalled barrier fails after between T and 2T")
	parkTTL := fs.Duration("park-ttl", 0, "reap unclaimed parked peer connections after this long (0 = 2x peer-timeout)")
	planCache := fs.Int("plan-cache", 0, "decoded plans kept in the fingerprint-keyed LRU (0 = 16, negative disables)")
	authToken := fs.String("auth-token", "", "shared secret; hellos without it are refused (empty = open)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := dist.WorkerOptions{
		PeerTimeout: *peerTO,
		ReadTimeout: *readTO,
		ParkTTL:     *parkTTL,
		PlanCache:   *planCache,
		AuthToken:   *authToken,
	}
	if !*quiet {
		logger := log.New(os.Stderr, "lbmm worker: ", log.LstdFlags)
		opts.Log = logger.Printf
	}
	return dist.ListenAndServe(*addr, opts)
}

// distRunReport is the JSON summary of one coordinated distributed
// multiplication (schema lbmm.dist_run.v2). CI asserts on .match,
// .exchanges against .rounds, .net.bytes_sent and .dist.plan_hits.
type distRunReport struct {
	Schema    string `json:"schema"`
	Workers   int    `json:"workers"`
	Workload  string `json:"workload"`
	N         int    `json:"n"`
	D         int    `json:"d"`
	Algorithm string `json:"algorithm"`
	Ring      string `json:"ring"`
	Partition string `json:"partition"`
	Lanes     int    `json:"lanes"`
	Rounds    int    `json:"rounds"`
	// Exchanges is the number of barriers every rank blocked on for the
	// Rounds network rounds of the model (docs/DIST.md): each rank's
	// net/flushes over its Workers−1 peers, identical on every rank.
	Exchanges int64 `json:"exchanges"`
	Messages  int64 `json:"messages"`
	OutputNNZ int   `json:"output_nnz"`
	Match     bool  `json:"match"`
	WallNS    int64 `json:"wall_ns"`
	// Net sums the transport counters across ranks; PerRankNet keeps each
	// rank's own set (the communication balance the partition achieved);
	// Dist carries the plan-cache counters (plan_hits, plan_misses).
	Net        map[string]int64   `json:"net"`
	PerRankNet []map[string]int64 `json:"per_rank_net"`
	Dist       map[string]int64   `json:"dist"`
}

// runDistRun coordinates one multiplication across real worker processes
// and verifies the merged product against the in-process engine. Owns its
// flags: -workers here is the address list, not serve's pool size.
func runDistRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated worker addresses (rank order)")
	wlName := fs.String("workload", "blocks", "workload (blocks|mixed|us|hotpair|powerlaw)")
	n := fs.Int("n", 48, "matrix dimension / computer count")
	d := fs.Int("d", 4, "sparsity parameter")
	algName := fs.String("alg", "lemma31", "algorithm (auto|trivial|lemma31|theorem42)")
	ringName := fs.String("ring", "real", "semiring (boolean|counting|minplus|maxplus|gfp|real)")
	seed := fs.Int64("seed", 1, "value seed (equal seeds replay equal values)")
	partition := fs.String("partition", dist.PartitionModulo, "node ownership map (modulo|balanced)")
	lanes := fs.Int("k", 1, "value-set lanes to batch through one shared mesh walk")
	outPath := fs.String("o", "", "also write the JSON report to this file")
	noVerify := fs.Bool("no-verify", false, "skip the in-process cross-check")
	authToken := fs.String("auth-token", "", "shared secret presented to token-guarded workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*workers, ",")
	if *workers == "" || len(addrs) < 2 {
		return fmt.Errorf("run needs -workers with at least 2 comma-separated addresses")
	}
	if *lanes < 1 {
		return fmt.Errorf("run needs -k of at least 1, got %d", *lanes)
	}

	inst, err := workloadInstance(*wlName, *n, *d)
	if err != nil {
		return err
	}
	r, err := matrix.RingByName(*ringName)
	if err != nil {
		return err
	}
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{
		Ring: r, D: *d, Algorithm: *algName,
	})
	if err != nil {
		return err
	}
	as := make([]*matrix.Sparse, *lanes)
	bs := make([]*matrix.Sparse, *lanes)
	for l := range as {
		as[l] = matrix.Random(inst.Ahat, r, *seed+2*int64(l))
		bs[l] = matrix.Random(inst.Bhat, r, *seed+2*int64(l)+1)
	}

	start := time.Now()
	res, err := dist.Run(dist.RunConfig{
		Workers:   addrs,
		Prep:      prep,
		As:        as,
		Bs:        bs,
		N:         inst.Ahat.N,
		Ring:      *ringName,
		Partition: *partition,
		AuthToken: *authToken,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	match := true
	if !*noVerify {
		// Cross-check every lane against its own in-process scalar product:
		// the batched distributed walk must be bit-identical, lane for lane,
		// to k independent multiplications.
		for l := range as {
			want, _, err := prep.Multiply(as[l], bs[l])
			if err != nil {
				return fmt.Errorf("in-process cross-check, lane %d: %w", l, err)
			}
			if !matrix.Equal(res.Xs[l], want) {
				match = false
			}
		}
	}
	perRank := make([]map[string]int64, len(res.PerRankCounters))
	var exchanges int64
	for rk, c := range res.PerRankCounters {
		perRank[rk] = counterGroup(c, "net/")
		// Every rank derives the exchange schedule from the plan alone, so
		// they must all have blocked on the same number of barriers.
		got := c[dist.CounterFlushes] / int64(len(addrs)-1)
		if rk > 0 && got != exchanges {
			return fmt.Errorf("rank %d blocked on %d exchanges, rank 0 on %d", rk, got, exchanges)
		}
		exchanges = got
	}
	report := distRunReport{
		Schema:     "lbmm.dist_run.v2",
		Workers:    len(addrs),
		Workload:   *wlName,
		N:          *n,
		D:          *d,
		Algorithm:  *algName,
		Ring:       *ringName,
		Partition:  *partition,
		Lanes:      *lanes,
		Rounds:     res.Stats.Rounds,
		Exchanges:  exchanges,
		Messages:   res.Stats.Messages,
		OutputNNZ:  res.Xs[0].NNZ(),
		Match:      match,
		WallNS:     wall.Nanoseconds(),
		Net:        counterGroup(res.Counters, "net/"),
		PerRankNet: perRank,
		Dist:       counterGroup(res.Counters, "dist/"),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
	}
	if !match {
		return fmt.Errorf("distributed product does not match the in-process product")
	}
	return nil
}

// counterGroup selects the counters under one namespace prefix and strips
// it for compact JSON keys (net/bytes_sent → bytes_sent).
func counterGroup(counters map[string]int64, prefix string) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range counters {
		if strings.HasPrefix(k, prefix) {
			out[strings.TrimPrefix(k, prefix)] = v
		}
	}
	return out
}
