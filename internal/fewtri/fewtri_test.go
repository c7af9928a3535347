package fewtri

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

func randomSupport(rng *rand.Rand, n, nnz int) *matrix.Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, entries)
}

// positionsOf returns the cell positions of tris in l's supports, found by
// search: the tests' stand-in for the positions the triangle walk hands a
// planner (graph.Instance.TrianglesLive).
func positionsOf(l *lbm.Layout, tris []graph.Triangle) []graph.Pos {
	at := func(s *matrix.Support, i, j int32) int32 {
		k, ok := slices.BinarySearch(s.Row(int(i)), j)
		if !ok {
			panic("fewtri test: a triangle's cell is outside the support")
		}
		return s.Off[i] + int32(k)
	}
	pos := make([]graph.Pos, len(tris))
	for t, tr := range tris {
		pos[t] = graph.Pos{A: at(l.A.Sup, tr.I, tr.J), B: at(l.B.Sup, tr.J, tr.K), X: at(l.X.Sup, tr.I, tr.K)}
	}
	return pos
}

// process plans tris under Lemma 3.1 and runs the job on m.
func process(m *lbm.Machine, n int, l *lbm.Layout, tris []graph.Triangle, kappa int) (*Job, error) {
	job, err := Plan(n, l, tris, positionsOf(l, tris), kappa)
	if err != nil {
		return nil, err
	}
	return job, Emit(m, job)
}

// runInstance processes tris of inst via Lemma 3.1 and returns (result,
// rounds).
func runInstance(t *testing.T, r ring.Semiring, inst *graph.Instance,
	tris []graph.Triangle, kappa int, seed int64) (*matrix.Sparse, *matrix.Sparse, int) {
	t.Helper()
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	m := lbm.New(inst.N, r)
	l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	if _, err := process(m, inst.N, l, tris, kappa); err != nil {
		t.Fatal(err)
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewSparse(inst.N, r)
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			want.Set(i, int(k), r.Zero())
		}
	}
	for _, tr := range tris {
		want.Add(int(tr.I), int(tr.K), r.Mul(a.Get(int(tr.I), int(tr.J)), b.Get(int(tr.J), int(tr.K))))
	}
	return got, want, m.Rounds()
}

func TestProcessAllTrianglesAllRings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, r := range ring.All() {
		for trial := 0; trial < 4; trial++ {
			n := 6 + rng.Intn(20)
			inst := graph.NewInstance(n,
				randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
			tris := inst.Triangles()
			got, want, _ := runInstance(t, r, inst, tris, 0, int64(trial))
			if !matrix.Equal(got, want) {
				t.Fatalf("%s trial %d: wrong product", r.Name(), trial)
			}
		}
	}
}

func TestProcessSubsetOnly(t *testing.T) {
	// Lemma 3.1 must process exactly the given triangle set, nothing more.
	rng := rand.New(rand.NewSource(5))
	r := ring.Counting{}
	n := 16
	inst := graph.NewInstance(n,
		randomSupport(rng, n, 5*n), randomSupport(rng, n, 5*n), randomSupport(rng, n, 4*n))
	tris := inst.Triangles()
	if len(tris) < 4 {
		t.Skip("too few triangles")
	}
	subset := tris[:len(tris)/3]
	got, want, _ := runInstance(t, r, inst, subset, 0, 9)
	if !matrix.Equal(got, want) {
		t.Fatal("subset processing wrong")
	}
}

func TestProcessVariousKappa(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := ring.NewGFp(101)
	n := 14
	inst := graph.NewInstance(n,
		randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
	tris := inst.Triangles()
	minKappa := (len(tris) + n - 1) / n // the lemma's |T| ≤ κn precondition
	for _, kappa := range []int{minKappa, minKappa + 1, 2 * minKappa, 100000} {
		got, want, _ := runInstance(t, r, inst, tris, kappa, 11)
		if !matrix.Equal(got, want) {
			t.Fatalf("kappa=%d: wrong product", kappa)
		}
	}
}

func TestProcessEmpty(t *testing.T) {
	m := lbm.New(4, ring.Counting{})
	sup := matrix.NewSupport(4, nil)
	l := lbm.ByRow.Layout(sup, sup, sup)
	if _, err := process(m, 4, l, nil, 0); err != nil {
		t.Fatal(err)
	}
	if m.Rounds() != 0 {
		t.Error("empty job must cost nothing")
	}
}

func TestSkewedInstanceBalanced(t *testing.T) {
	// A single I-node touching every triangle (maximal imbalance) — the
	// virtualization must spread the work and the result must be exact.
	n := 32
	r := ring.Counting{}
	var ae, be, xe [][2]int
	// A row 0 is dense; B is a permutation; X row 0 is dense.
	for j := 0; j < n; j++ {
		ae = append(ae, [2]int{0, j})
		be = append(be, [2]int{j, (j + 5) % n})
		xe = append(xe, [2]int{0, j})
	}
	inst := graph.NewInstance(n,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
	tris := inst.Triangles()
	if len(tris) != n {
		t.Fatalf("expected %d triangles, got %d", n, len(tris))
	}
	kappa := 2
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	m := lbm.New(n, r)
	l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	job, err := process(m, n, l, tris, kappa)
	if err != nil {
		t.Fatal(err)
	}
	if job.VirtualNodes < n/kappa {
		t.Errorf("expected ≥ %d virtual nodes, got %d", n/kappa, job.VirtualNodes)
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulReference(a, b, inst.Xhat)
	if !matrix.Equal(got, want) {
		t.Fatal("skewed instance wrong product")
	}
	// No computer should have received vastly more than the κ-scale load.
	st := m.Stats()
	bound := int64(8*kappa + 2*n) // generous constant; the point is Θ(κ+d+log)
	if st.MaxRecvLoad() > bound {
		t.Errorf("max receive load %d exceeds O(κ+d) bound %d", st.MaxRecvLoad(), bound)
	}
}

func TestRoundsScaleWithKappa(t *testing.T) {
	// For a fixed US(d) instance, rounds should scale roughly like
	// O(κ + d + log m) — processing with a big κ budget cannot be cheaper
	// than with the natural κ, and halving the triangle count should
	// roughly halve the rounds at natural κ.
	rng := rand.New(rand.NewSource(77))
	r := ring.Boolean{}
	n, d := 128, 8
	us := func() *matrix.Support {
		var es [][2]int
		for t := 0; t < d; t++ {
			p := rng.Perm(n)
			for i, j := range p {
				es = append(es, [2]int{i, j})
			}
		}
		return matrix.NewSupport(n, es)
	}
	inst := graph.NewInstance(d, us(), us(), us())
	tris := inst.Triangles()
	if len(tris) < 20 {
		t.Skip("not enough triangles")
	}
	_, _, fullRounds := runInstance(t, r, inst, tris, 0, 3)
	_, _, halfRounds := runInstance(t, r, inst, tris[:len(tris)/2], 0, 3)
	if halfRounds > fullRounds {
		t.Errorf("half the triangles took more rounds (%d > %d)", halfRounds, fullRounds)
	}
	// Sanity: rounds are within a constant of κ+d+log|T| for natural κ.
	kappa := (3*len(tris) + n - 1) / n
	bound := 40.0 * (float64(kappa) + float64(d) + math.Log2(float64(len(tris))+2))
	if float64(fullRounds) > bound {
		t.Errorf("rounds %d exceed O(κ+d+log m) sanity bound %.0f", fullRounds, bound)
	}
}

func TestPlanRejectsTooManyTriangles(t *testing.T) {
	// κ=1 with more than n triangles on distinct pairs must be rejected.
	n := 4
	var tris []graph.Triangle
	var ae, be, xe [][2]int
	for i := range 4 {
		for j := range 3 {
			k := (i + j) % 4
			tris = append(tris, graph.Triangle{I: int32(i), J: int32(j), K: int32(k)})
			ae, be, xe = append(ae, [2]int{i, j}), append(be, [2]int{j, k}), append(xe, [2]int{i, k})
		}
	}
	l := lbm.ByRow.Layout(matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
	if _, err := Plan(n, l, tris, positionsOf(l, tris), 1); err == nil {
		t.Error("expected κn overflow error")
	}
}

// TestQuickRandomSubsets is a property test: for random instances, random
// triangle subsets and random admissible κ, Lemma 3.1 processes exactly the
// subset, over a random ring.
func TestQuickRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	rings := ring.All()
	prop := func(seed int64) bool {
		n := 6 + rng.Intn(18)
		inst := graph.NewInstance(n,
			randomSupport(rng, n, 2+rng.Intn(4*n)),
			randomSupport(rng, n, 2+rng.Intn(4*n)),
			randomSupport(rng, n, 2+rng.Intn(4*n)))
		tris := inst.Triangles()
		// Random subset.
		var subset []graph.Triangle
		for _, tr := range tris {
			if rng.Intn(2) == 0 {
				subset = append(subset, tr)
			}
		}
		minKappa := (len(subset) + n - 1) / n
		kappa := minKappa + rng.Intn(5)
		r := rings[rng.Intn(len(rings))]
		got, want, _ := runInstance(t, r, inst, subset, kappa, seed)
		return matrix.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunTwiceAccumulates documents replay semantics: a job's plans route
// from the original inputs each time, so running the same job twice
// accumulates every product twice into X (the cleanup between runs removes
// only staged copies, not inputs).
func TestRunTwiceAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := ring.Counting{}
	n := 12
	inst := graph.NewInstance(n,
		randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n))
	tris := inst.Triangles()
	if len(tris) == 0 {
		t.Skip("no triangles")
	}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	m := lbm.New(n, r)
	l := lbm.ByRow.Layout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	job, err := Plan(n, l, tris, positionsOf(l, tris), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Emit(m, job); err != nil {
		t.Fatal(err)
	}
	if err := Emit(m, job); err != nil {
		t.Fatal(err)
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	once := matrix.MulReference(a, b, inst.Xhat)
	for i := range inst.Xhat.N {
		for _, k := range inst.Xhat.Row(i) {
			if got.Get(i, int(k)) != 2*once.Get(i, int(k)) {
				t.Fatalf("X(%d,%d) = %v after two runs, want %v", i, k,
					got.Get(i, int(k)), 2*once.Get(i, int(k)))
			}
		}
	}
}
