// Benchmarks regenerating every table and figure of the paper. Each bench
// drives the same harness as `cmd/lbmm` (package internal/exper) and
// reports the *measured model rounds* as custom metrics next to the host
// wall-clock: the rounds are the reproduced quantity, the ns/op is merely
// the cost of simulating them.
//
//	go test -bench=. -benchmem
//
// Individual experiments:
//
//	go test -bench BenchmarkTable1 -benchtime 1x
//	go test -bench BenchmarkFigure1 -benchtime 1x
package lbmm_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	lbmpkg "lbmm/internal/lbm"
	"lbmm/internal/routing"

	"lbmm/internal/algo"
	"lbmm/internal/core"
	"lbmm/internal/exper"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/params"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// metricName flattens a series name into a Go bench metric suffix.
func metricName(s string) string {
	s = strings.ToLower(s)
	for _, cut := range []string{" ", "[", "]", "(", ")", ",", "²", "³"} {
		s = strings.ReplaceAll(s, cut, "_")
	}
	return strings.Trim(s, "_")
}

// BenchmarkTable1 regenerates Table 1: the full complexity ladder, one
// sub-benchmark per row, reporting rounds at the largest swept size and the
// fitted exponent.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table1(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable1(rows, ""))
			for _, s := range rows {
				last := s.Points[len(s.Points)-1]
				b.ReportMetric(float64(last.Rounds), "rounds_"+metricName(s.Name))
				b.ReportMetric(s.FittedExponent(), "expo_"+metricName(s.Name))
			}
		}
	}
}

// BenchmarkTable2 regenerates the classification table: all 20 class
// multisets solved and verified.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table2(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatTable2(rows))
			total := 0
			for _, r := range rows {
				total += r.Rounds
			}
			b.ReportMetric(float64(total), "rounds_total")
		}
	}
}

// BenchmarkTable3 and BenchmarkTable4 regenerate the parameter schedules
// (pure computation; benchmarked for completeness of the per-table index).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps := params.TableSemiring()
		if len(steps) != 4 {
			b.Fatalf("table 3 has %d steps", len(steps))
		}
		if i == 0 {
			b.Log("\n" + params.Format(steps))
			b.ReportMetric(steps[len(steps)-1].Beta, "final_beta")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steps := params.TableField()
		if len(steps) != 4 {
			b.Fatalf("table 4 has %d steps", len(steps))
		}
		if i == 0 {
			b.Log("\n" + params.Format(steps))
			b.ReportMetric(steps[len(steps)-1].Beta, "final_beta")
		}
	}
}

// BenchmarkFigure1 regenerates the §1.2 exponent-progress figure, with
// measured tail exponents attached.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table1(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.Figure1(rows))
		}
	}
}

// BenchmarkLemma31 is the key ablation: Lemma 3.1's routing vs the naive
// duplication routing on hot-pair instances.
func BenchmarkLemma31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.AblationLemma31(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatAblation(rows))
			for _, r := range rows {
				if r.Name == "hot pair" {
					b.ReportMetric(float64(r.BaselineRounds)/float64(r.LemmaRounds),
						fmt.Sprintf("speedup_n%d", r.N))
				}
			}
		}
	}
}

// BenchmarkLowerLog and BenchmarkLowerSqrt regenerate the §6 experiments.
func BenchmarkLowerLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.LowerBounds(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if err := exper.CheckLowerRows(rows); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatLowerBounds(rows))
			for _, r := range rows {
				if strings.HasPrefix(r.Name, "sum") {
					b.ReportMetric(float64(r.Rounds), fmt.Sprintf("sum_rounds_n%d", r.N))
				}
			}
		}
	}
}

func BenchmarkLowerSqrt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.LowerBounds(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if strings.HasPrefix(r.Name, "outer") {
					b.ReportMetric(float64(r.MaxRecv), fmt.Sprintf("forced_recv_n%d", r.N))
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the individual algorithms (host wall-clock of the
// simulation; useful for tracking the simulator's own performance).

func benchAlgorithm(b *testing.B, inst *graph.Instance, r ring.Semiring, alg algo.Algorithm) {
	a := matrix.Random(inst.Ahat, r, 1)
	bm := matrix.Random(inst.Bhat, r, 2)
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, _, err := algo.Solve(r, inst, a, bm, alg)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "model_rounds")
}

func BenchmarkAlgoTrivial(b *testing.B) {
	benchAlgorithm(b, workload.Blocks(128, 8), ring.Boolean{}, algo.TrivialSparse)
}

func BenchmarkAlgoLemma31(b *testing.B) {
	benchAlgorithm(b, workload.Blocks(128, 8), ring.Boolean{}, algo.LemmaOnly)
}

func BenchmarkAlgoTheorem42Semiring(b *testing.B) {
	benchAlgorithm(b, workload.Blocks(128, 8), ring.Boolean{}, algo.Theorem42(algo.Theorem42Opts{}))
}

func BenchmarkAlgoTheorem42Field(b *testing.B) {
	benchAlgorithm(b, workload.Blocks(128, 8), ring.NewGFp(1009), algo.Theorem42(algo.Theorem42Opts{}))
}

func BenchmarkAlgoBaseline(b *testing.B) {
	benchAlgorithm(b, workload.Blocks(128, 8), ring.Boolean{}, algo.BaselineNaiveVirtual(0))
}

// BenchmarkSupportCost measures the supported-vs-unsupported gap (§1.6).
func BenchmarkSupportCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.SupportCost(exper.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + exper.FormatSupportCost(rows))
			for _, r := range rows {
				b.ReportMetric(float64(r.UnsupportedRounds)/float64(r.SupportedRounds),
					fmt.Sprintf("overhead_n%d", r.N))
			}
		}
	}
}

// BenchmarkSimulatorRound measures the simulator's own throughput: one
// n-message permutation round (host wall-clock per executed model round).
func BenchmarkSimulatorRound(b *testing.B) {
	n := 4096
	m := lbmpkg.New(n, ring.Counting{})
	r := make(lbmpkg.Round, n)
	for i := 0; i < n; i++ {
		m.Put(lbmpkg.NodeID(i), lbmpkg.AKey(int32(i), 0), 1)
		r[i] = lbmpkg.Send{
			From: lbmpkg.NodeID(i), To: lbmpkg.NodeID((i + 1) % n),
			Src: lbmpkg.AKey(int32(i), 0), Dst: lbmpkg.TKey(int32(i), 0, 0), Op: lbmpkg.OpSet,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunRound(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "messages/round")
}

// BenchmarkColoring compares the two edge-colouring backends' planning cost.
func BenchmarkColoring(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var msgs []routing.Msg
	n := 512
	for i := 0; i < 16*n; i++ {
		from := lbmpkg.NodeID(rng.Intn(n))
		to := lbmpkg.NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		msgs = append(msgs, routing.Msg{From: from, To: to,
			Src: lbmpkg.TKey(int32(i), 0, 0), Dst: lbmpkg.TKey(int32(i), 1, 0)})
	}
	b.Run("euler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := routing.Schedule(msgs, routing.Euler)
			if i == 0 {
				b.ReportMetric(float64(p.NumRounds()), "rounds")
			}
		}
	})
	b.Run("konig", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := routing.Schedule(msgs, routing.Konig)
			if i == 0 {
				b.ReportMetric(float64(p.NumRounds()), "rounds")
			}
		}
	})
}

// BenchmarkPreparedMultiply measures the amortized host cost of repeated
// products with a fixed structure (planning hoisted out of the loop).
func BenchmarkPreparedMultiply(b *testing.B) {
	r := ring.NewGFp(1009)
	inst := workload.Blocks(128, 8)
	p, err := algo.PrepareTheorem42(r, inst, algo.Theorem42Opts{})
	if err != nil {
		b.Fatal(err)
	}
	as := []*matrix.Sparse{matrix.Random(inst.Ahat, r, 1)}
	bs := []*matrix.Sparse{matrix.Random(inst.Bhat, r, 2)}
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		_, res, err := p.MultiplyBatch(as, bs)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "model_rounds")
}

// BenchmarkServeCacheHit measures the serving layer's steady state: every
// request after the first finds its prepared plan in the cache, so ns/op is
// plan execution plus cache lookup (no planning).
func BenchmarkServeCacheHit(b *testing.B) {
	srv := service.NewServer(service.Config{CacheSize: 16})
	ctx := context.Background()
	r := ring.Counting{}
	inst := workload.Blocks(64, 4)
	a := matrix.Random(inst.Ahat, r, 1)
	bm := matrix.Random(inst.Bhat, r, 2)
	req := &service.MultiplyRequest{A: a, B: bm, Xhat: inst.Xhat, Options: core.Options{Ring: r}}
	if _, err := srv.Multiply(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Multiply(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
	b.ReportMetric(float64(srv.Metrics()[service.MetricCacheHits]), "cache_hits")
}

// BenchmarkServeCacheMiss measures the cold path: a capacity-1 cache with
// two alternating structures means every request misses, evicts, and pays a
// full compilation.
func BenchmarkServeCacheMiss(b *testing.B) {
	srv := service.NewServer(service.Config{CacheSize: 1})
	ctx := context.Background()
	r := ring.Counting{}
	insts := []*graph.Instance{workload.Blocks(64, 4), workload.BlocksShifted(64, 4)}
	reqs := make([]*service.MultiplyRequest, len(insts))
	for i, inst := range insts {
		reqs[i] = &service.MultiplyRequest{
			A:    matrix.Random(inst.Ahat, r, int64(2*i+1)),
			B:    matrix.Random(inst.Bhat, r, int64(2*i+2)),
			Xhat: inst.Xhat, Options: core.Options{Ring: r},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := srv.Multiply(ctx, reqs[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if resp.CacheHit {
			b.Fatal("expected a cache miss")
		}
	}
	b.ReportMetric(float64(srv.Metrics()[service.MetricCacheMisses]), "cache_misses")
}
