package dense

import (
	"math"
	"math/rand"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/vnet"
)

func randomSupport(rng *rand.Rand, n, nnz int) *matrix.Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, entries)
}

func fullSupport(n int) *matrix.Support {
	var es [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			es = append(es, [2]int{i, j})
		}
	}
	return matrix.NewSupport(n, es)
}

// runAndVerify loads a random instance, runs alg, and checks the collected
// output against the reference product. Returns rounds used.
func runAndVerify(t *testing.T, r ring.Semiring, inst *graph.Instance, seed int64,
	alg func(m *lbm.Machine, l *lbm.Layout) error) int {
	t.Helper()
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	want := matrix.MulReference(a, b, inst.Xhat)

	m := lbm.New(inst.N, r)
	l := lbm.RowLayout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	if err := alg(m, l); err != nil {
		t.Fatal(err)
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want) {
		t.Fatalf("%s: wrong product (n=%d)", r.Name(), inst.N)
	}
	return m.Rounds()
}

func TestTrivialGatherCorrectAndExactRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range ring.All() {
		n := 8 + rng.Intn(8)
		inst := graph.NewInstance(n,
			randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n), randomSupport(rng, n, 2*n))
		rounds := runAndVerify(t, r, inst, 42, func(m *lbm.Machine, l *lbm.Layout) error {
			return TrivialGather(m, l, inst)
		})
		// Exactly one round per foreign element in/out of computer 0.
		want := 0
		for _, s := range []*matrix.Support{inst.Ahat, inst.Bhat, inst.Xhat} {
			want += s.NNZ - s.RowLen(0)
		}
		if rounds != want {
			t.Errorf("%s: trivial used %d rounds, want %d", r.Name(), rounds, want)
		}
	}
}

func TestWholeCubeCorrectAllRings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range ring.All() {
		for trial := 0; trial < 3; trial++ {
			n := 6 + rng.Intn(14)
			inst := graph.NewInstance(n,
				randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
			runAndVerify(t, r, inst, int64(trial), func(m *lbm.Machine, l *lbm.Layout) error {
				return RunWholeCube(m, l, inst)
			})
		}
	}
}

func TestWholeCubeDense(t *testing.T) {
	n := 9
	full := fullSupport(n)
	inst := graph.NewInstance(n, full, full, full)
	for _, r := range []ring.Semiring{ring.Counting{}, ring.MinPlus{}} {
		runAndVerify(t, r, inst, 7, func(m *lbm.Machine, l *lbm.Layout) error {
			return RunWholeCube(m, l, inst)
		})
	}
}

func TestWholeStrassenDense(t *testing.T) {
	for _, f := range ring.Fields() {
		for _, n := range []int{4, 7, 8, 12, 16} {
			full := fullSupport(n)
			inst := graph.NewInstance(n, full, full, full)
			runAndVerify(t, f, inst, int64(n), func(m *lbm.Machine, l *lbm.Layout) error {
				return RunWholeStrassen(m, l, inst)
			})
		}
	}
}

func TestWholeStrassenSparseMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range ring.Fields() {
		for trial := 0; trial < 4; trial++ {
			n := 5 + rng.Intn(12)
			inst := graph.NewInstance(n,
				randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n), randomSupport(rng, n, 2*n))
			runAndVerify(t, f, inst, int64(trial+50), func(m *lbm.Machine, l *lbm.Layout) error {
				return RunWholeStrassen(m, l, inst)
			})
		}
	}
}

func TestCubeClusterBatchParallel(t *testing.T) {
	// Two disjoint clusters processed as one batch; triangles split between
	// them; a residual triangle left out must NOT be processed.
	n := 12
	r := ring.Counting{}
	// Cluster 1: I={0,1}, J={2,3}, K={4,5}; cluster 2: I={6,7}, J={8,9}, K={10,11}.
	var es [][2]int
	ahat := matrix.NewSupport(n, [][2]int{{0, 2}, {1, 3}, {6, 8}, {7, 9}, {0, 3}})
	bhat := matrix.NewSupport(n, [][2]int{{2, 4}, {3, 5}, {8, 10}, {9, 11}, {3, 4}})
	xhat := matrix.NewSupport(n, [][2]int{{0, 4}, {1, 5}, {6, 10}, {7, 11}, {0, 5}})
	_ = es
	inst := graph.NewInstance(n, ahat, bhat, xhat)
	tris := inst.Triangles()
	c1 := graph.Cluster{I: []int32{0, 1}, J: []int32{2, 3}, K: []int32{4, 5}}
	c2 := graph.Cluster{I: []int32{6, 7}, J: []int32{8, 9}, K: []int32{10, 11}}
	in1 := c1.Induced(tris)
	in2 := c2.Induced(tris)
	if len(in1) == 0 || len(in2) == 0 {
		t.Fatalf("test construction broken: %d/%d triangles", len(in1), len(in2))
	}

	a := matrix.Random(ahat, r, 1)
	b := matrix.Random(bhat, r, 2)
	m := lbm.New(n, r)
	l := lbm.RowLayout(ahat, bhat, xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, xhat)

	net := vnet.Roles(n)
	mkProcs := func(c graph.Cluster) []int32 {
		var ps []int32
		for _, i := range c.I {
			ps = append(ps, i)
		}
		for _, j := range c.J {
			ps = append(ps, int32(n)+j)
		}
		for _, k := range c.K {
			ps = append(ps, 2*int32(n)+k)
		}
		return ps
	}
	j1, err := PlanCube(net, &CubeSpec{N: n, Procs: mkProcs(c1), I: c1.I, J: c1.J, K: c1.K, Tris: in1, Layout: l})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := PlanCube(net, &CubeSpec{N: n, Procs: mkProcs(c2), I: c2.I, J: c2.J, K: c2.K, Tris: in2, Layout: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunCubeJobs(m, net, []*CubeJob{j1, j2}); err != nil {
		t.Fatal(err)
	}
	// Verify: exactly the induced triangles processed.
	processed := append(append([]graph.Triangle{}, in1...), in2...)
	want := matrix.NewSparse(n, r)
	for i := range xhat.N {
		for _, k := range xhat.Row(i) {
			want.Set(i, int(k), r.Zero())
		}
	}
	for _, tr := range processed {
		want.Add(int(tr.I), int(tr.K), r.Mul(a.Get(int(tr.I), int(tr.J)), b.Get(int(tr.J), int(tr.K))))
	}
	got, err := lbm.CollectX(m, l, xhat)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want) {
		t.Fatalf("cluster batch processed wrong triangle set:\ngot\n%v\nwant\n%v", got, want)
	}
}

func TestCubeMaskedExcludesUnassigned(t *testing.T) {
	// Give the cube only HALF the triangles; the result must include only
	// those products (the masked local multiply must not process the rest).
	rng := rand.New(rand.NewSource(3))
	n := 10
	r := ring.Counting{}
	inst := graph.NewInstance(n,
		randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
	tris := inst.Triangles()
	if len(tris) < 2 {
		t.Skip("instance too small")
	}
	half := tris[:len(tris)/2]
	a := matrix.Random(inst.Ahat, r, 9)
	b := matrix.Random(inst.Bhat, r, 10)
	m := lbm.New(n, r)
	l := lbm.RowLayout(inst.Ahat, inst.Bhat, inst.Xhat)
	lbm.LoadInputs(m, l, a, b)
	lbm.ZeroOutputs(m, l, inst.Xhat)
	net := vnet.Roles(n)
	job, err := PlanCube(net, &CubeSpec{
		N: n, Procs: allIndices(3 * n),
		I: allIndices(n), J: allIndices(n), K: allIndices(n), Tris: half, Layout: l,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunCubeJobs(m, net, []*CubeJob{job}); err != nil {
		t.Fatal(err)
	}
	want := matrix.NewSparse(n, r)
	for _, tr := range half {
		want.Add(int(tr.I), int(tr.K), r.Mul(a.Get(int(tr.I), int(tr.J)), b.Get(int(tr.J), int(tr.K))))
	}
	got, err := lbm.CollectX(m, l, inst.Xhat)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want) {
		t.Fatal("masked cube processed unassigned triangles")
	}
}

func TestGridDimAndChunk(t *testing.T) {
	cases := map[int]int{1: 1, 7: 1, 8: 2, 26: 2, 27: 3, 63: 3, 64: 4}
	for p, want := range cases {
		if got := gridDim(p); got != want {
			t.Errorf("gridDim(%d) = %d, want %d", p, got, want)
		}
	}
	// chunkIndex covers [0,q) and is monotone.
	for _, q := range []int{1, 2, 3, 5} {
		size := 17
		prev := 0
		seen := map[int]bool{}
		for pos := 0; pos < size; pos++ {
			c := chunkIndex(pos, size, q)
			if c < prev || c >= q {
				t.Fatalf("chunkIndex(%d,%d,%d) = %d", pos, size, q, c)
			}
			prev = c
			seen[c] = true
		}
		if len(seen) != q {
			t.Errorf("chunkIndex misses chunks for q=%d", q)
		}
	}
}

func TestStrassenDepthAndGroups(t *testing.T) {
	if strassenDepth(1, 64) != 0 || strassenDepth(7, 64) != 1 || strassenDepth(49, 64) != 2 {
		t.Error("strassenDepth wrong")
	}
	if strassenDepth(1000, 2) != 1 { // size-limited
		t.Errorf("strassenDepth(1000,2) = %d", strassenDepth(1000, 2))
	}
	procs := allIndices(20)
	for l := 0; l <= 1; l++ {
		covered := 0
		for s := 0; s < pow7(l); s++ {
			lo, hi := group(procs, l, s)
			if hi < lo {
				t.Fatal("empty-reversed group")
			}
			covered += hi - lo
		}
		if covered != len(procs) {
			t.Errorf("level %d groups cover %d procs", l, covered)
		}
	}
}

func TestStrassenRejectsNonField(t *testing.T) {
	n := 4
	full := fullSupport(n)
	inst := graph.NewInstance(n, full, full, full)
	m := lbm.New(n, ring.Counting{})
	l := lbm.RowLayout(full, full, full)
	lbm.LoadInputs(m, l, matrix.Random(full, ring.Counting{}, 1), matrix.Random(full, ring.Counting{}, 2))
	if err := RunWholeStrassen(m, l, inst); err == nil {
		t.Error("strassen over a semiring must be rejected")
	}
}

func TestCubeRoundsScaleLikeDN13(t *testing.T) {
	// On US(d) instances with fixed d, rounds should grow ~ n^{1/3}, far
	// below the trivial algorithm's ~n growth. Check a crude ratio.
	r := ring.Boolean{}
	d := 3
	rounds := map[int]int{}
	for _, n := range []int{64, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
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
		rounds[n] = runAndVerify(t, r, inst, int64(n), func(m *lbm.Machine, l *lbm.Layout) error {
			return RunWholeCube(m, l, inst)
		})
	}
	// n grew by 8, n^{1/3} by 2; allow generous slack but demand clearly
	// sublinear growth.
	ratio := float64(rounds[512]) / math.Max(float64(rounds[64]), 1)
	if ratio > 4.0 {
		t.Errorf("cube rounds grew by %.2fx for 8x n (want ~2x)", ratio)
	}
}

func TestWholeStrassenDeepRecursion(t *testing.T) {
	// n=120 gives 3n=360 ≥ 7³ processors: recursion depth 3, exercising
	// multi-level down/up phases.
	if testing.Short() {
		t.Skip("deep recursion instance")
	}
	n := 120
	full := fullSupport(n)
	inst := graph.NewInstance(n, full, full, full)
	rounds := runAndVerify(t, ring.NewGFp(1009), inst, 3, func(m *lbm.Machine, l *lbm.Layout) error {
		return RunWholeStrassen(m, l, inst)
	})
	if rounds == 0 {
		t.Fatal("no rounds")
	}
}

func TestWholeStrassenWinogradVariant(t *testing.T) {
	// The Strassen–Winograd coefficient tables must compute the same
	// products as the classic scheme on dense and sparse instances.
	for _, f := range ring.Fields() {
		for _, n := range []int{5, 8, 13} {
			full := fullSupport(n)
			inst := graph.NewInstance(n, full, full, full)
			runAndVerify(t, f, inst, int64(n), func(m *lbm.Machine, l *lbm.Layout) error {
				job, err := PlanStrassen(vnet.Roles(inst.N), &StrassenSpec{
					N: inst.N, Procs: allIndices(3 * inst.N),
					I: allIndices(inst.N), J: allIndices(inst.N), K: allIndices(inst.N),
					SA: inst.Ahat, SB: inst.Bhat, SX: inst.Xhat,
					Layout: l, Variant: VariantWinograd(),
				})
				if err != nil {
					return err
				}
				return RunStrassenJobs(m, vnet.Roles(inst.N), []*StrassenJob{job})
			})
		}
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		n := 6 + rng.Intn(10)
		inst := graph.NewInstance(n,
			randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n), randomSupport(rng, n, 2*n))
		runAndVerify(t, ring.NewGFp(1009), inst, int64(trial), func(m *lbm.Machine, l *lbm.Layout) error {
			job, err := PlanStrassen(vnet.Roles(inst.N), &StrassenSpec{
				N: inst.N, Procs: allIndices(3 * inst.N),
				I: allIndices(inst.N), J: allIndices(inst.N), K: allIndices(inst.N),
				SA: inst.Ahat, SB: inst.Bhat, SX: inst.Xhat,
				Layout: l, Variant: VariantWinograd(),
			})
			if err != nil {
				return err
			}
			return RunStrassenJobs(m, vnet.Roles(inst.N), []*StrassenJob{job})
		})
	}
}
