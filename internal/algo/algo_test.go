package algo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func randomSupport(rng *rand.Rand, n, nnz int) *matrix.Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, entries)
}

// blockInstance builds the extremal US(d) instance: n/d disjoint complete
// d×d blocks on each matrix, giving ~d²n triangles (the worst case of
// Corollary 4.6) with perfect clusters.
func blockInstance(n, d int) *graph.Instance {
	var es [][2]int
	for b := 0; b+d <= n; b += d {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				es = append(es, [2]int{b + i, b + j})
			}
		}
	}
	s := matrix.NewSupport(n, es)
	return graph.NewInstance(d, s, s, s)
}

func usInstance(rng *rand.Rand, n, d int) *graph.Instance {
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
	return graph.NewInstance(d, us(), us(), us())
}

// planFn is one algorithm as a plan: a Planner method with its arguments.
type planFn func(*Planner) (*Prepared, error)

var (
	planTrivial   planFn = (*Planner).Trivial
	planLemma31   planFn = func(pl *Planner) (*Prepared, error) { return pl.Lemma31(0) }
	planBaseline  planFn = func(pl *Planner) (*Prepared, error) { return pl.Baseline(0) }
	planTheorem42 planFn = (*Planner).Theorem42
	planSPAA22    planFn = (*Planner).SPAA22
)

// solve plans alg for the instance and runs the plan on the map engine.
func solve(r ring.Semiring, inst *graph.Instance, a, b *matrix.Sparse, alg planFn, mopts ...lbm.Option) (*matrix.Sparse, *Result, error) {
	p, err := alg(NewPlanner(r, inst))
	if err != nil {
		return nil, nil, err
	}
	return p.MultiplyMap(a, b, mopts...)
}

// checkAlg runs alg on random values drawn from seed and checks the product.
func checkAlg(t *testing.T, r ring.Semiring, inst *graph.Instance, alg planFn, seed int64) *Result {
	t.Helper()
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	got, res, err := solve(r, inst, a, b, alg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(got, a, b, inst.Xhat); err != nil {
		t.Fatalf("%s over %s: %v", res.Name, r.Name(), err)
	}
	return res
}

func TestAllAlgorithmsCorrectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	algs := []planFn{planTrivial, planBaseline, planLemma31, planTheorem42}
	for _, r := range ring.All() {
		for trial := 0; trial < 2; trial++ {
			n := 12 + rng.Intn(12)
			inst := graph.NewInstance(3,
				randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n), randomSupport(rng, n, 3*n))
			for _, alg := range algs {
				checkAlg(t, r, inst, alg, int64(trial))
			}
		}
	}
}

func TestAllAlgorithmsCorrectBlocks(t *testing.T) {
	algs := []planFn{planTrivial, planBaseline, planLemma31, planTheorem42}
	for _, r := range []ring.Semiring{ring.Counting{}, ring.NewGFp(1009), ring.Real{}, ring.MinPlus{}} {
		inst := blockInstance(24, 4)
		for _, alg := range algs {
			res := checkAlg(t, r, inst, alg, 7)
			if res.Triangles == 0 {
				t.Fatal("block instance has no triangles")
			}
		}
	}
}

func TestAllAlgorithmsCorrectUS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := usInstance(rng, 32, 4)
	algs := []planFn{planTrivial, planBaseline, planLemma31, planTheorem42}
	for _, alg := range algs {
		checkAlg(t, ring.Counting{}, inst, alg, 3)
	}
}

func TestTheorem42UsesClustersOnBlocks(t *testing.T) {
	// The block instance is perfectly clusterable: phase 1 must fire and
	// shrink the residual substantially.
	inst := blockInstance(32, 4)
	res := checkAlg(t, ring.Counting{}, inst, planTheorem42, 1)
	if res.Batches == 0 {
		t.Error("no clustered batches on the block instance")
	}
	if res.Residual >= res.Triangles {
		t.Error("phase 1 removed nothing")
	}
	// Field variant exercises Strassen clusters.
	resF := checkAlg(t, ring.NewGFp(997), inst, planTheorem42, 1)
	if resF.Cluster.StrassenClusters == 0 {
		t.Error("field run used no Strassen clusters")
	}
}

func TestTheorem42BeatsTrivialOnBlocks(t *testing.T) {
	// On the extremal instance the clustered phase should beat the O(d²)
	// trivial algorithm once d is large enough for the d^{4/3}-vs-d² gap to
	// overcome the simulation constants (role multiplexing, Euler colours).
	if testing.Short() {
		t.Skip("large instance")
	}
	n, d := 256, 32
	inst := blockInstance(n, d)
	triv := checkAlg(t, ring.Boolean{}, inst, planTrivial, 2)
	thm := checkAlg(t, ring.Boolean{}, inst, planTheorem42, 2)
	if thm.Rounds >= triv.Rounds {
		t.Errorf("theorem42 (%d rounds) did not beat trivial (%d rounds)", thm.Rounds, triv.Rounds)
	}
}

func TestLemma31BeatsBaselineOnHotPairs(t *testing.T) {
	// Instance with a hot B pair: B(0,0) participates in many triangles.
	// The naive baseline's owner of B row 0 re-sends the hot value once per
	// virtual consumer; Lemma 3.1's broadcast trees spread it in O(log).
	n := 96
	var ae, be, xe [][2]int
	for i := 0; i < n; i++ {
		ae = append(ae, [2]int{i, 0}) // A column 0 dense: every i uses j=0
		xe = append(xe, [2]int{i, 0})
	}
	be = append(be, [2]int{0, 0}) // single hot B element
	inst := graph.NewInstance(n,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
	if inst.CountTriangles() != n {
		t.Fatalf("want %d triangles, got %d", n, inst.CountTriangles())
	}
	// Force fine-grained virtualization (κ=1) so the hot value has many
	// virtual consumers.
	r := ring.Counting{}
	base := checkAlg(t, r, inst, func(pl *Planner) (*Prepared, error) { return pl.Baseline(1) }, 3)
	lem := checkAlg(t, r, inst, func(pl *Planner) (*Prepared, error) { return pl.Lemma31(1) }, 3)
	// The baseline's hot-value sender pays Θ(n) rounds; Lemma 3.1 pays
	// Θ(log n + small). Demand a clear separation.
	if lem.Rounds*2 >= base.Rounds {
		t.Errorf("lemma 3.1 (%d rounds) not clearly faster than naive baseline (%d rounds)",
			lem.Rounds, base.Rounds)
	}
}

func TestSPAA22ReconstructionCorrect(t *testing.T) {
	// The prior-work full reconstruction (clusters + naive phase 2) must be
	// exact on every ring and every instance family.
	rng := rand.New(rand.NewSource(13))
	alg := planSPAA22
	for _, r := range []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.NewGFp(1009)} {
		inst := graph.NewInstance(3,
			randomSupport(rng, 20, 60), randomSupport(rng, 20, 60), randomSupport(rng, 20, 60))
		res := checkAlg(t, r, inst, alg, 5)
		if res.Name != "spaa22-reconstruction" {
			t.Errorf("name = %s", res.Name)
		}
	}
	checkAlg(t, ring.Counting{}, blockInstance(24, 4), alg, 6)
	checkAlg(t, ring.Counting{}, usInstance(rng, 32, 4), alg, 7)
}

// TestUnsupportedMode prices the unsupported model as exper.SupportCost
// does: the structure disseminated on its own machine, beside the supported
// plan, with the rounds summed.
func TestUnsupportedMode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := ring.Counting{}
	inst := graph.NewInstance(3,
		randomSupport(rng, 24, 60), randomSupport(rng, 24, 60), randomSupport(rng, 24, 40))
	sup := checkAlg(t, r, inst, planLemma31, 5)
	m := lbm.New(inst.N, r)
	words, err := DisseminateSupport(m, ChooseLayout(inst), inst)
	if err != nil {
		t.Fatal(err)
	}
	if want := inst.Ahat.NNZ + inst.Bhat.NNZ + inst.Xhat.NNZ; words != want {
		t.Errorf("support words %d, want %d", words, want)
	}
	// Dissemination dominates: ≥ words rounds (computer 0 receives them all
	// one per round), ≤ ~3·words + log n.
	dissemination := m.Rounds()
	if dissemination < words-24 { // entries already at 0 are local
		t.Errorf("dissemination rounds %d below gather floor", dissemination)
	}
	if dissemination > 4*words+40 {
		t.Errorf("dissemination rounds %d above pipeline bound", dissemination)
	}
	// The supported run of the same instance must be much cheaper.
	if unsupported := dissemination + sup.Rounds; sup.Rounds >= unsupported {
		t.Errorf("supported (%d) not cheaper than unsupported (%d)", sup.Rounds, unsupported)
	}
}

func TestDisseminationDeliversTheStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := ring.Counting{}
	n := 16
	inst := graph.NewInstance(2,
		randomSupport(rng, n, 30), randomSupport(rng, n, 30), randomSupport(rng, n, 20))
	m := lbm.New(n, r)
	l := ChooseLayout(inst)
	lbm.LoadInputs(m, l, matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2))
	if _, err := DisseminateSupport(m, l, inst); err != nil {
		t.Fatal(err)
	}
	// EVERY computer can reconstruct all three supports.
	for v := 0; v < n; v++ {
		if err := VerifyDissemination(m, lbm.NodeID(v), inst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickAllAlgorithmsAllClasses sweeps random (algorithm, ring, class
// triple) combinations through the full pipeline.
func TestQuickAllAlgorithmsAllClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	rings := ring.All()
	algs := []planFn{planTrivial, planLemma31, planTheorem42, planBaseline, planSPAA22}
	classes := []matrix.Class{matrix.US, matrix.RS, matrix.CS, matrix.BD, matrix.AS}
	prop := func(seed int64) bool {
		n := 12 + rng.Intn(20)
		d := 1 + rng.Intn(3)
		ca := classes[rng.Intn(len(classes))]
		cb := classes[rng.Intn(len(classes))]
		cx := classes[rng.Intn(len(classes))]
		inst := workload.Instance(ca, cb, cx, n, d, seed)
		r := rings[rng.Intn(len(rings))]
		alg := algs[rng.Intn(len(algs))]
		a := matrix.Random(inst.Ahat, r, seed)
		b := matrix.Random(inst.Bhat, r, seed+1)
		got, _, err := solve(r, inst, a, b, alg)
		if err != nil {
			t.Logf("solve error: %v", err)
			return false
		}
		return Verify(got, a, b, inst.Xhat) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
