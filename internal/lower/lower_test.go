package lower

import (
	"math/bits"
	"math/rand"
	"testing"

	"lbmm/internal/algo"
	"lbmm/internal/fewtri"
	"lbmm/internal/graph"
	lbmpkg "lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

func TestSumInstanceShapeAndClasses(t *testing.T) {
	n := 16
	inst := SumInstance(n)
	if inst.CountTriangles() != n {
		t.Fatalf("sum instance has %d triangles, want %d", inst.CountTriangles(), n)
	}
	a, b, x := inst.Classify()
	// One dense row is CS(1) ⊆ BD(1); one dense column is RS(1) ⊆ BD(1);
	// the single output is US(1).
	if !matrix.BD.Contains(a) || !matrix.BD.Contains(b) || x != matrix.US {
		t.Errorf("classes %v %v %v, want BD-contained, BD-contained, US", a, b, x)
	}
}

func TestBroadcastInstanceShape(t *testing.T) {
	n := 16
	inst := BroadcastInstance(n)
	if inst.CountTriangles() != n {
		t.Fatalf("broadcast instance has %d triangles", inst.CountTriangles())
	}
	_, b, _ := inst.Classify()
	if b != matrix.US {
		t.Errorf("B class %v, want US", b)
	}
}

// runLemma31 plans Lemma 3.1 at its natural budget for the instance and
// runs the plan on the values.
func runLemma31(r ring.Semiring, inst *graph.Instance, a, b *matrix.Sparse) (*matrix.Sparse, *algo.Result, error) {
	p, err := algo.NewPlanner(r, inst).Lemma31(0)
	if err != nil {
		return nil, nil, err
	}
	return p.MultiplyMap(a, b)
}

// TestSumIsCorrectAndPaysLog runs the repository's algorithm on the sum
// instance and verifies (a) correctness and (b) that it pays at least the
// Ω(log n) of Theorem 6.15 (it must: the result aggregates n values).
func TestSumIsCorrectAndPaysLog(t *testing.T) {
	r := ring.Counting{}
	for _, n := range []int{8, 64, 256} {
		inst := SumInstance(n)
		a := matrix.Random(inst.Ahat, r, int64(n))
		b := matrix.Random(inst.Bhat, r, 1)
		// Make B all ones per the construction.
		for j := 0; j < n; j++ {
			b.Set(j, 0, 1)
		}
		got, res, err := runLemma31(r, inst, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := ring.Value(0)
		for j := 0; j < n; j++ {
			want += a.Get(0, j)
		}
		if got.Get(0, 0) != want {
			t.Fatalf("n=%d: sum = %v, want %v", n, got.Get(0, 0), want)
		}
		if res.Rounds < SumBound(n) {
			t.Errorf("n=%d: %d rounds beat the Ω(log n) bound %d — impossible", n, res.Rounds, SumBound(n))
		}
		// And the upper bound side of Theorem 5.x: O(d² + log n) with d=1
		// means a few dozen rounds even at n=256, far below √n or n.
		if res.Rounds > 12*SumBound(n)+40 {
			t.Errorf("n=%d: %d rounds is not O(d²+log n)-ish", n, res.Rounds)
		}
	}
}

func TestBroadcastIsCorrectAndPaysLog(t *testing.T) {
	r := ring.Counting{}
	for _, n := range []int{8, 64, 256} {
		inst := BroadcastInstance(n)
		a := matrix.Random(inst.Ahat, r, 1)
		for i := 0; i < n; i++ {
			a.Set(i, 0, 1) // ones per the construction
		}
		b := matrix.Random(inst.Bhat, r, int64(n))
		got, res, err := runLemma31(r, inst, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got.Get(i, 0) != b.Get(0, 0) {
				t.Fatalf("n=%d: computer %d did not learn b", n, i)
			}
		}
		if res.Rounds < BroadcastFanInBound(n) {
			t.Errorf("n=%d: %d rounds beat the fan-in bound %d — impossible", n, res.Rounds, BroadcastFanInBound(n))
		}
	}
}

func TestBoundValues(t *testing.T) {
	if BroadcastFanInBound(1) != 0 || BroadcastFanInBound(3) != 1 || BroadcastFanInBound(4) != 2 ||
		BroadcastFanInBound(27) != 3 || BroadcastFanInBound(28) != 4 {
		t.Error("fan-in bound values wrong")
	}
	if DegreeBound(1) != 0 || DegreeBound(2) != 1 || DegreeBound(1024) != 10 || DegreeBound(1025) != 11 {
		t.Error("degree bound values wrong")
	}
	if SqrtBound(16) != 4 || SqrtBound(17) != 5 {
		t.Error("sqrt bound values wrong")
	}
}

func TestBooleanDegreeKnownFunctions(t *testing.T) {
	for n := 1; n <= 10; n++ {
		n := n
		or := func(m uint32) bool { return m != 0 }
		and := func(m uint32) bool { return bits.OnesCount32(m) == n }
		xor := func(m uint32) bool { return bits.OnesCount32(m)%2 == 1 }
		first := func(m uint32) bool { return m&1 != 0 }
		constant := func(uint32) bool { return true }
		if got := BooleanDegree(or, n); got != n {
			t.Errorf("deg(OR_%d) = %d", n, got)
		}
		if got := BooleanDegree(and, n); got != n {
			t.Errorf("deg(AND_%d) = %d", n, got)
		}
		if got := BooleanDegree(xor, n); got != n {
			t.Errorf("deg(XOR_%d) = %d", n, got)
		}
		if got := BooleanDegree(first, n); got != 1 {
			t.Errorf("deg(x_1) = %d over n=%d", got, n)
		}
		if got := BooleanDegree(constant, n); got != 0 {
			t.Errorf("deg(1) = %d", got)
		}
	}
}

func TestUSGMInstanceShape(t *testing.T) {
	n := 12
	inst := USGMInstance(n)
	a, b, x := inst.Classify()
	if a != matrix.US {
		t.Errorf("A class %v, want US", a)
	}
	if b != matrix.GM || x != matrix.GM {
		t.Errorf("B,X classes %v,%v, want GM,GM", b, x)
	}
	// 2n² triangles: each (i,k) has exactly the two diagonal js.
	if got := inst.CountTriangles(); got != 2*n*n {
		t.Errorf("triangles = %d, want %d", got, 2*n*n)
	}
}

func TestRSCSInstanceShapeAndHardness(t *testing.T) {
	n := 16
	inst := RSCSInstance(n)
	a, b, x := inst.Classify()
	if a != matrix.RS || b != matrix.CS || x != matrix.GM {
		t.Errorf("classes %v %v %v, want RS CS GM", a, b, x)
	}
	if got := inst.CountTriangles(); got != n*n {
		t.Errorf("triangles = %d, want %d", got, n*n)
	}
}

// TestRSCSExecutionPaysSqrt runs the outer-product hard instance and checks
// the measured rounds and receive loads respect Theorem 6.27.
func TestRSCSExecutionPaysSqrt(t *testing.T) {
	r := ring.Counting{}
	for _, n := range []int{16, 64} {
		inst := RSCSInstance(n)
		a := matrix.Random(inst.Ahat, r, 3)
		b := matrix.Random(inst.Bhat, r, 4)
		got, res, err := runLemma31(r, inst, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := algo.Verify(got, a, b, inst.Xhat); err != nil {
			t.Fatal(err)
		}
		if res.Rounds < SqrtBound(n)-1 {
			t.Errorf("n=%d: %d rounds beat the Ω(√n) bound %d — impossible", n, res.Rounds, SqrtBound(n))
		}
		if res.Stats.MaxRecvLoad() < int64(SqrtBound(n)-1) {
			t.Errorf("n=%d: max receive load %d below forced %d", n, res.Stats.MaxRecvLoad(), SqrtBound(n)-1)
		}
	}
}

// TestPackingReduction executes the Theorem 6.19 reduction end to end: a
// dense m×m product solved through the AS(1) packing, with the round
// accounting T'(m) = m·T(m²).
func TestPackingReduction(t *testing.T) {
	r := ring.NewGFp(101)
	m := 5
	inst := PackDense(m)
	if inst.N != m*m {
		t.Fatalf("packed n = %d", inst.N)
	}
	if !inst.Ahat.IsAS(1) {
		t.Error("packed instance is not AS(1)")
	}
	a := matrix.Random(inst.Ahat, r, 7)
	b := matrix.Random(inst.Bhat, r, 8)
	got, res, err := runLemma31(r, inst, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := algo.Verify(got, a, b, inst.Xhat); err != nil {
		t.Fatal(err)
	}
	tPrime := ReductionRounds(m, res.Rounds)
	if tPrime != m*res.Rounds {
		t.Error("accounting wrong")
	}
	// Sanity of the conditional bound values.
	if ConditionalBound(64, 4.0/3.0) <= 1 {
		t.Error("conditional bound degenerate")
	}
}

// TestDegreeGrowthBound is Lemma 6.5's proof made executable on a real
// protocol: run the library's algorithm on the OR instance for EVERY
// Boolean input vector, partition the inputs by the output computer's final
// result, and check that the partition classes' characteristic-polynomial
// degrees are at most 2^T for the T rounds the protocol used — the
// deg(𝒢(T)) ≤ 2^T invariant.
func TestDegreeGrowthBound(t *testing.T) {
	n := 8
	inst := SumInstance(n) // over Boolean, X(0,0) = OR of the inputs
	r := ring.Boolean{}

	outputs := make([]bool, 1<<n)
	rounds := 0
	for mask := 0; mask < 1<<n; mask++ {
		// The support is fixed (the full row) in the supported model; an
		// input bit 0 is an explicit stored zero, so we load values
		// (including zeros) for every support position directly — the plan
		// must depend only on the support, never on the values.
		m := lbmpkg.New(n, r)
		l := lbmpkg.Balanced.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
		// Load A values (including zeros) per the support.
		for j := 0; j < n; j++ {
			v := ring.Value(0)
			if mask&(1<<j) != 0 {
				v = 1
			}
			m.Put(l.OwnerA(0, int32(j)), lbmpkg.AKey(0, int32(j)), v)
		}
		for j := 0; j < n; j++ {
			m.Put(l.OwnerB(int32(j), 0), lbmpkg.BKey(int32(j), 0), 1)
		}
		lbmpkg.ZeroOutputs(m, l, inst.Xhat)
		tris, pos, _, _, _ := inst.TrianglesLive()
		job, err := fewtri.Plan(n, l, tris, pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fewtri.Emit(m, job); err != nil {
			t.Fatal(err)
		}
		v, ok := m.Get(l.OwnerX(0, 0), lbmpkg.XKey(0, 0))
		if !ok {
			t.Fatal("output missing")
		}
		outputs[mask] = v == 1
		if m.Rounds() > rounds {
			rounds = m.Rounds()
		}

		// Sanity: the protocol really computes OR.
		if want := mask != 0; outputs[mask] != want {
			t.Fatalf("mask %b: output %v", mask, outputs[mask])
		}
	}
	// The output partitions {0,1}^n into two classes; their degrees must
	// obey deg ≤ 2^T.
	degTrue := BooleanDegree(func(m uint32) bool { return outputs[m] }, n)
	if degTrue != n {
		t.Fatalf("protocol's output degree %d, want %d (it computes OR)", degTrue, n)
	}
	if float64(int(1)<<rounds) < float64(degTrue) {
		t.Fatalf("Lemma 6.5 violated?! deg %d > 2^%d", degTrue, rounds)
	}
	// And the implied lower bound holds with slack.
	if rounds < DegreeBound(degTrue) {
		t.Fatalf("rounds %d below the degree bound %d — impossible", rounds, DegreeBound(degTrue))
	}
}

// TestDegreeCalculusLemma64 checks the degree rules of Lemma 6.4 on random
// Boolean functions via the executable degree machinery.
func TestDegreeCalculusLemma64(t *testing.T) {
	n := 6
	size := uint32(1) << n
	rng := rand.New(rand.NewSource(5))
	randFn := func() []bool {
		f := make([]bool, size)
		for i := range f {
			f[i] = rng.Intn(2) == 0
		}
		return f
	}
	deg := func(f []bool) int {
		return BooleanDegree(func(m uint32) bool { return f[m] }, n)
	}
	for trial := 0; trial < 30; trial++ {
		f, g := randFn(), randFn()
		df, dg := deg(f), deg(g)
		and := make([]bool, size)
		or := make([]bool, size)
		not := make([]bool, size)
		fAndNotG := make([]bool, size)
		for m := range and {
			and[m] = f[m] && g[m]
			or[m] = f[m] || g[m]
			not[m] = !f[m]
			fAndNotG[m] = f[m] && !g[m]
		}
		// (a) deg(f∧g) ≤ deg f + deg g.
		if got := deg(and); got > df+dg {
			t.Fatalf("AND degree %d > %d+%d", got, df, dg)
		}
		// (b) deg(¬f) = deg(f) — except the degenerate all-false/all-true
		// flip where both sides are 0 vs 0; Lemma 6.4(b) handles constants
		// consistently because deg(1−f) includes the constant term.
		dn := deg(not)
		if df == 0 && dn != 0 {
			// f constant ⇒ ¬f constant.
			t.Fatalf("negation of constant has degree %d", dn)
		}
		if df > 0 && dn != df {
			t.Fatalf("deg(¬f) = %d != deg(f) = %d", dn, df)
		}
		// (c) deg(f∨g) ≤ deg f + deg g.
		if got := deg(or); got > df+dg {
			t.Fatalf("OR degree %d > %d+%d", got, df, dg)
		}
		// (e) deg(f∧¬g) ≤ deg f + deg g.
		if got := deg(fAndNotG); got > df+dg {
			t.Fatalf("f∧¬g degree %d > %d+%d", got, df, dg)
		}
	}
	// (d) disjoint OR: deg(f∨g) ≤ max(deg f, deg g) when f∧g ≡ 0.
	for trial := 0; trial < 30; trial++ {
		// Build disjoint f, g by splitting the true-set of a random h.
		h := randFn()
		f := make([]bool, size)
		g := make([]bool, size)
		for m := range h {
			if h[m] {
				if rng.Intn(2) == 0 {
					f[m] = true
				} else {
					g[m] = true
				}
			}
		}
		or := make([]bool, size)
		for m := range or {
			or[m] = f[m] || g[m]
		}
		df, dg := deg(f), deg(g)
		mx := df
		if dg > mx {
			mx = dg
		}
		if got := deg(or); got > mx {
			t.Fatalf("disjoint OR degree %d > max(%d,%d)", got, df, dg)
		}
	}
}
