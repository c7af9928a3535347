package algo

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// sharedPlans returns two plans over one 64-computer machine whose arenas
// differ: P, the trivial plan of a US structure over the counting ring,
// and Q, Theorem 4.2 on blocks over GF(1009), whose Strassen clusters
// subtract and take more slots. They share every executor pool.
func sharedPlans(t *testing.T) (p, q *Prepared) {
	t.Helper()
	p = prepareFor(t, ring.Counting{}, workload.Instance(matrix.US, matrix.US, matrix.US, 64, 2, 5), "trivial")
	q = prepareFor(t, ring.NewGFp(1009), workload.Blocks(64, 4), "theorem42")
	if slots(p) >= slots(q) {
		t.Fatalf("P takes %d slots and Q %d; Q must take more", slots(p), slots(q))
	}
	if q.meta.Cluster.StrassenClusters == 0 {
		t.Fatal("Q has no Strassen cluster, so no run subtracts")
	}
	return p, q
}

// slots is the number of arena slots a plan's machine needs.
func slots(p *Prepared) int {
	total := 0
	for _, sz := range p.compiled.sizes {
		total += int(sz)
	}
	return total
}

// poison takes an executor of p's machine carrying k lanes, fills every
// slot p lays out with NaN and marks it present, and returns it to its pool
// the way a run does, after Reset; it returns that pool. A later run that
// read any of those slots before writing it would carry the NaN into its
// product.
func poison(p *Prepared, k int) *sync.Pool {
	cp := p.compiled
	x, pool := cp.execFor(k)
	for _, vals := range x.BeginLoad(cp.sizes, nil) {
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	x.Reset()
	pool.Put(x)
	return pool
}

// laneValues draws k value sets on p's supports.
func laneValues(p *Prepared, k int, seed int64) (as, bs []*matrix.Sparse) {
	for l := 0; l < k; l++ {
		as = append(as, matrix.Random(p.Inst.Ahat, p.R, seed+int64(2*l)))
		bs = append(bs, matrix.Random(p.Inst.Bhat, p.R, seed+int64(2*l+1)))
	}
	return as, bs
}

// sharedRunErr multiplies k lanes on p, by MultiplyBatch and again by
// MultiplyValues, and holds every product to MulReference and, unless p was
// decoded and has no plan for the map oracle to run, both runs' Stats to
// the oracle's: a slot present before the run wrote it would show in
// PeakStore even where its stale value was the ring zero.
func sharedRunErr(p *Prepared, k int, seed int64) error {
	as, bs := laneValues(p, k, seed)
	outs, res, err := p.MultiplyBatch(as, bs)
	if err != nil {
		return err
	}
	var mres *Result
	if p.Layout != nil {
		if _, mres, err = p.MultiplyMap(as[0], bs[0]); err != nil {
			return err
		}
		if err := oracleStatsErr(p, mres.Stats, res.Stats); err != nil {
			return fmt.Errorf("MultiplyBatch: %w", err)
		}
	}
	fa, fb, fx := make([][]ring.Value, k), make([][]ring.Value, k), make([][]ring.Value, k)
	for l := range as {
		if want := matrix.MulReference(as[l], bs[l], p.Inst.Xhat); !matrix.Equal(outs[l], want) {
			return fmt.Errorf("MultiplyBatch lane %d differs from MulReference", l)
		}
		fa[l], fb[l] = listedValues(as[l], p.Inst.Ahat), listedValues(bs[l], p.Inst.Bhat)
		fx[l] = make([]ring.Value, p.Inst.Xhat.NNZ)
	}
	vres, err := p.MultiplyValues(fa, fb, fx)
	if err != nil {
		return err
	}
	if mres != nil {
		if err := oracleStatsErr(p, mres.Stats, vres.Stats); err != nil {
			return fmt.Errorf("MultiplyValues: %w", err)
		}
	}
	for l := range as {
		want := listedValues(matrix.MulReference(as[l], bs[l], p.Inst.Xhat), p.Inst.Xhat)
		for i := range want {
			if fx[l][i] != want[i] {
				return fmt.Errorf("MultiplyValues lane %d position %d: %v, want %v", l, i, fx[l][i], want[i])
			}
		}
	}
	return nil
}

// listedValues returns m's values at the positions of sup in row-major
// order, a position m does not hold reading as zero.
func listedValues(m *matrix.Sparse, sup *matrix.Support) []ring.Value {
	var vals []ring.Value
	for i := range sup.N {
		for _, j := range sup.Row(i) {
			vals = append(vals, m.Get(i, int(j)))
		}
	}
	return vals
}

// faultAt drops the first message of one network round.
type faultAt struct{ round int }

func (f faultAt) Decide(round, ord int, _, _ lbm.NodeID) lbm.FaultKind {
	if round == f.round && ord == 0 {
		return lbm.FaultDrop
	}
	return lbm.FaultNone
}

func (faultAt) Straggles(int, lbm.NodeID) bool { return false }

// TestSharedExecutorAcrossPlans runs two plans on one machine's executor
// pool, in turn, at 1, 3 and 16 lanes: P on an executor another run left
// poisoned, then Q, whose larger arenas need more slots than P's layout
// (the slabs grow unless an earlier run grew them), then P on what Q and a
// second poisoning left, then Q again. Runs that fail mid-walk, one
// under a store limit one below Q's peak and one under a dropped message,
// leave present slots and written values behind them; the good runs after
// them must not see either. Every product must be MulReference's. That a
// previous run of another plan is harmless rests on the load prefixes,
// derived by numberLoads: a run writes every slot it reads before reading it.
func TestSharedExecutorAcrossPlans(t *testing.T) {
	p, q := sharedPlans(t)
	run := func(label string, pl *Prepared, k int, seed int64) {
		t.Helper()
		if err := sharedRunErr(pl, k, seed); err != nil {
			t.Fatalf("k=%d %s: %v", k, label, err)
		}
	}
	for _, k := range []int{1, 3, 16} {
		pool := poison(p, k)
		run("P after a poisoned run", p, k, 1)
		run("Q, re-laying for larger arenas", q, k, 2)
		if poison(q, k) != pool {
			t.Fatalf("k=%d: P and Q take executors from different pools", k)
		}
		run("P after Q and a poisoned run", p, k, 3)
		run("Q again", q, k, 4)

		as, bs := laneValues(q, k, 5)
		_, res, err := q.MultiplyBatch(as, bs)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		_, _, err = q.MultiplyBatch(as, bs, lbm.WithStoreLimit(res.Stats.PeakStore-1))
		if err == nil {
			t.Fatalf("k=%d: Q ran under a store limit one below its peak %d", k, res.Stats.PeakStore)
		}
		run("P after a run stopped by the store limit", p, k, 6)
		run("Q after a run stopped by the store limit", q, k, 7)
		_, _, err = q.MultiplyBatch(as, bs, lbm.WithInjector(faultAt{round: res.Rounds / 2}))
		var fault *lbm.ErrFault
		if !errors.As(err, &fault) {
			t.Fatalf("k=%d: Q under a dropped message in round %d ended with %v, want a fault", k, res.Rounds/2, err)
		}
		run("Q after a faulted run", q, k, 8)
		run("P after a faulted run", p, k, 9)
	}
}

// TestSharedExecutorHammer runs P and Q alternately from several
// goroutines at several lane counts, so the executors of one pool pass
// between the two plans while others run; under -race it is the data-race
// check of the shared pools.
func TestSharedExecutorHammer(t *testing.T) {
	p, q := sharedPlans(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				pl, k := p, 1+(g+i)%3
				if (g+i)%2 == 1 {
					pl = q
				}
				if err := sharedRunErr(pl, k, int64(100*g+i)); err != nil {
					errs <- fmt.Errorf("goroutine %d, run %d (%s, k=%d): %w", g, i, pl.Name, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
