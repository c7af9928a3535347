package algo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// liveWorkloads are the structures the live-cell tests run over: three with
// many cells on no triangle (us, mixed, powerlaw), one with none (blocks)
// and Lemma 3.1's skewed hot pair.
var liveWorkloads = []struct {
	name string
	inst func() *graph.Instance
}{
	{"us", func() *graph.Instance { return workload.Instance(matrix.US, matrix.US, matrix.US, 32, 4, 3) }},
	{"mixed", func() *graph.Instance { return workload.Mixed(32, 4, 3) }},
	{"blocks", func() *graph.Instance { return workload.Blocks(32, 4) }},
	{"powerlaw", func() *graph.Instance { return workload.PowerLaw(32, 4, 3) }},
	{"hotpair", func() *graph.Instance { return workload.HotPair(32) }},
}

// deadCells counts the cells of inst that lie on no triangle.
func deadCells(inst *graph.Instance) int {
	n := 0
	a, b, x := inst.Live()
	for _, live := range [][]bool{a, b, x} {
		for _, ok := range live {
			if !ok {
				n++
			}
		}
	}
	return n
}

// TestLiveGuard runs every compiled algorithm over every live workload and
// ring. Each compiles, so no plan reaches a dead cell, and the slots are
// exactly the live cells plus the plans' scratch. The compiled walk's Stats,
// PeakStore included, are the map oracle's. With a StoreLimit one below
// that peak both engines end alike: the same error after the same number
// of counted rounds, or the same success.
func TestLiveGuard(t *testing.T) {
	rings := []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.Real{}, ring.NewGFp(1009)}
	dead, limited := 0, 0
	for _, w := range liveWorkloads {
		inst := w.inst()
		nDead := deadCells(inst)
		dead += nDead
		for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
			for _, r := range rings {
				label := fmt.Sprintf("%s/%s/%s", alg, w.name, r.Name())
				p := prepareFor(t, r, inst, alg)
				cp := p.compiled
				live := inst.Ahat.NNZ + inst.Bhat.NNZ + inst.Xhat.NNZ - nDead
				if got := len(cp.loadA) + len(cp.loadB) + len(cp.x); got != live {
					t.Fatalf("%s: %d load refs for %d live cells", label, got, live)
				}
				var sumDead int32
				for _, d := range cp.dead {
					sumDead += d
				}
				if int(sumDead) != nDead {
					t.Fatalf("%s: dead counts sum to %d, the instance has %d dead cells", label, sumDead, nDead)
				}

				av, bv := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
				want, mres, err := p.MultiplyMap(av, bv)
				if err != nil {
					t.Fatalf("%s: map: %v", label, err)
				}
				got, cres, err := multiplyOne(p, av, bv)
				if err != nil {
					t.Fatalf("%s: compiled: %v", label, err)
				}
				if !matrix.Equal(got, want) {
					t.Fatalf("%s: compiled product differs from the map oracle", label)
				}
				if !reflect.DeepEqual(cres.Stats, mres.Stats) {
					t.Fatalf("%s: stats differ from the map oracle\n got %+v\nwant %+v", label, cres.Stats, mres.Stats)
				}

				limit := lbm.WithStoreLimit(mres.Stats.PeakStore - 1)
				mprof, cprof := obsv.NewProfile(), obsv.NewProfile()
				_, _, merr := p.MultiplyMap(av, bv, limit, lbm.WithCollector(mprof))
				_, _, cerr := multiplyOne(p, av, bv, limit, lbm.WithCollector(cprof))
				if fmt.Sprint(merr) != fmt.Sprint(cerr) || len(mprof.Rounds()) != len(cprof.Rounds()) {
					t.Fatalf("%s: under StoreLimit %d the map engine ends with %v after %d rounds, the compiled with %v after %d",
						label, mres.Stats.PeakStore-1, merr, len(mprof.Rounds()), cerr, len(cprof.Rounds()))
				}
				if merr != nil {
					limited++
				}
			}
		}
	}
	if dead == 0 || limited == 0 {
		t.Fatalf("the table has %d dead cells and %d runs stopped by the store limit; both must be positive", dead, limited)
	}
}

// TestLiveGuardRejectsDeadReach plans the trivial algorithm on one
// structure and compiles it against the same structure minus one
// triangle's B cell. The plan still reads that cell, which now lies on no
// triangle and has no slot, and compilation must refuse it.
func TestLiveGuardRejectsDeadReach(t *testing.T) {
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 32, 4, 3)
	p, err := NewPlanner(ring.Counting{}, inst).Trivial()
	if err != nil {
		t.Fatal(err)
	}
	t0 := inst.Triangles()[0]
	var bs [][2]int
	for j, row := range inst.Bhat.Rows {
		for _, k := range row {
			if int32(j) != t0.J || k != t0.K {
				bs = append(bs, [2]int{j, int(k)})
			}
		}
	}
	p.Inst = graph.NewInstance(inst.D, inst.Ahat, matrix.NewSupport(inst.N, bs), inst.Xhat)
	if err := p.Compile(); !errors.Is(err, ErrDeadCell) {
		t.Fatalf("err = %v, want ErrDeadCell", err)
	}
}

// deadInputs returns value sets for p's structure at lane count k whose dead
// A and B cells hold poison(l, c), the c-th dead cell of lane l.
func deadInputs(p *Prepared, k int, poison func(l, c int) ring.Value) (as, bs []*matrix.Sparse) {
	liveA, liveB, _ := p.Inst.Live()
	fill := func(sup *matrix.Support, live []bool, seed int64, l int) *matrix.Sparse {
		m := matrix.Random(sup, p.R, seed)
		pos, c := 0, 0
		for _, cells := range m.Rows {
			for i := range cells {
				if !live[pos] {
					cells[i].Val = poison(l, c)
					c++
				}
				pos++
			}
		}
		return m
	}
	for l := 0; l < k; l++ {
		as = append(as, fill(p.Inst.Ahat, liveA, int64(2*l+1), l))
		bs = append(bs, fill(p.Inst.Bhat, liveB, int64(2*l+2), l))
	}
	return as, bs
}

// TestLiveDeadCellsNeverRead puts NaN, +Inf and -Inf in the dead A and B
// cells over the reals, at one lane and at five: no dead value is loaded,
// so every product is MulReference's and finite.
func TestLiveDeadCellsNeverRead(t *testing.T) {
	r := ring.Real{}
	poisons := []ring.Value{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
		p := prepareFor(t, r, workload.Mixed(32, 4, 3), alg)
		for _, k := range []int{1, 5} {
			as, bs := deadInputs(p, k, func(l, c int) ring.Value { return poisons[(l+c)%len(poisons)] })
			outs, _, err := p.MultiplyBatch(as, bs)
			if err != nil {
				t.Fatalf("%s k=%d: %v", alg, k, err)
			}
			for l, out := range outs {
				if !matrix.Equal(out, matrix.MulReference(as[l], bs[l], p.Inst.Xhat)) {
					t.Errorf("%s k=%d: lane %d differs from MulReference", alg, k, l)
				}
				for _, row := range out.Rows {
					for _, c := range row {
						if math.IsNaN(c.Val) || math.IsInf(c.Val, 0) {
							t.Fatalf("%s k=%d: lane %d holds %v at column %d", alg, k, l, c.Val, c.Col)
						}
					}
				}
			}
		}
	}
}

// TestLiveDeadValuesIgnored changes every dead cell's value and checks the
// products do not move, at one lane and at five.
func TestLiveDeadValuesIgnored(t *testing.T) {
	r := ring.NewGFp(1009)
	for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
		p := prepareFor(t, r, workload.PowerLaw(32, 4, 3), alg)
		for _, k := range []int{1, 5} {
			as, bs := deadInputs(p, k, func(l, c int) ring.Value { return 1 })
			want, _, err := p.MultiplyBatch(as, bs)
			if err != nil {
				t.Fatalf("%s k=%d: %v", alg, k, err)
			}
			as, bs = deadInputs(p, k, func(l, c int) ring.Value { return ring.Value(2 + (7*l+c)%1000) })
			got, _, err := p.MultiplyBatch(as, bs)
			if err != nil {
				t.Fatalf("%s k=%d: %v", alg, k, err)
			}
			for l := range got {
				if !matrix.Equal(got[l], want[l]) {
					t.Errorf("%s k=%d: lane %d moved with a dead cell's value", alg, k, l)
				}
			}
		}
	}
}

// TestLiveContainment pins what the containment pass rejects, at one lane
// and at five with the bad lane in the middle, and that the error names the
// lane and the cell as the support check always has: a value outside the
// structure, an unsorted row, a duplicate column (each reported at the
// first cell the tandem walk cannot place) and a Rows slice of the wrong
// length. A partial lane, its absent cells the ring zero, is accepted.
func TestLiveContainment(t *testing.T) {
	r := ring.Counting{}
	p := prepareFor(t, r, workload.Mixed(32, 4, 3), "trivial")
	i := 0
	for len(p.Inst.Ahat.Rows[i]) < 2 {
		i++
	}
	c0 := p.Inst.Ahat.Rows[i][0]
	outside := int32(0)
	for p.Inst.Ahat.Has(i, int(outside)) {
		outside++
	}
	for _, tc := range []struct {
		name  string
		spoil func(m *matrix.Sparse)
		want  string
	}{
		{"outside", func(m *matrix.Sparse) { m.Set(i, int(outside), 5) },
			fmt.Sprintf("A value at (%d,%d) outside the prepared structure", i, outside)},
		{"unsorted", func(m *matrix.Sparse) { m.Rows[i][0], m.Rows[i][1] = m.Rows[i][1], m.Rows[i][0] },
			fmt.Sprintf("A value at (%d,%d) outside the prepared structure", i, c0)},
		{"duplicate", func(m *matrix.Sparse) { m.Rows[i][1].Col = m.Rows[i][0].Col },
			fmt.Sprintf("A value at (%d,%d) outside the prepared structure", i, c0)},
		{"short rows", func(m *matrix.Sparse) { m.Rows = m.Rows[:m.N-1] },
			fmt.Sprintf("A has %d rows for dimension %d", p.Inst.N-1, p.Inst.N)},
		{"long rows", func(m *matrix.Sparse) { m.Rows = append(m.Rows, nil) },
			fmt.Sprintf("A has %d rows for dimension %d", p.Inst.N+1, p.Inst.N)},
	} {
		for _, k := range []int{1, 5} {
			as, bs := deadInputs(p, k, func(l, c int) ring.Value { return 3 })
			bad := k / 2
			tc.spoil(as[bad])
			want := fmt.Sprintf("algo: lane %d: %s", bad, tc.want)
			if _, _, err := p.MultiplyBatch(as, bs); err == nil || err.Error() != want {
				t.Errorf("%s k=%d: err = %v, want %q", tc.name, k, err, want)
			}
		}
	}
	for _, k := range []int{1, 5} {
		as, bs := make([]*matrix.Sparse, k), make([]*matrix.Sparse, k)
		for l := range as {
			as[l] = partialValues(p.Inst.Ahat, r, int64(2*l+1), l)
			bs[l] = partialValues(p.Inst.Bhat, r, int64(2*l+2), l+1)
		}
		outs, _, err := p.MultiplyBatch(as, bs)
		if err != nil {
			t.Fatalf("partial k=%d: %v", k, err)
		}
		for l := range outs {
			if !matrix.Equal(outs[l], matrix.MulReference(as[l], bs[l], p.Inst.Xhat)) {
				t.Errorf("partial k=%d: lane %d differs from MulReference", k, l)
			}
		}
	}
}
