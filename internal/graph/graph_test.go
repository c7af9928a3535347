package graph

import (
	"math/rand"
	"slices"
	"testing"

	"lbmm/internal/matrix"
)

func randomSupport(rng *rand.Rand, n, nnz int) *matrix.Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, entries)
}

// bruteTriangles is the O(n^3) oracle.
func bruteTriangles(inst *Instance) []Triangle {
	var out []Triangle
	for i := 0; i < inst.N; i++ {
		for j := 0; j < inst.N; j++ {
			if !inst.Ahat.Has(i, j) {
				continue
			}
			for k := 0; k < inst.N; k++ {
				if inst.Bhat.Has(j, k) && inst.Xhat.Has(i, k) {
					out = append(out, Triangle{int32(i), int32(j), int32(k)})
				}
			}
		}
	}
	return out
}

func sameTriangles(a, b []Triangle) bool {
	if len(a) != len(b) {
		return false
	}
	slices.SortFunc(a, Compare)
	slices.SortFunc(b, Compare)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTrianglesAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		inst := NewInstance(n,
			randomSupport(rng, n, rng.Intn(3*n)),
			randomSupport(rng, n, rng.Intn(3*n)),
			randomSupport(rng, n, rng.Intn(3*n)))
		got := inst.Triangles()
		want := bruteTriangles(inst)
		if !sameTriangles(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		if cnt := inst.CountTriangles(); cnt != len(want) {
			t.Fatalf("CountTriangles = %d, want %d", cnt, len(want))
		}
	}
}

// TestLiveAgainstTriangles checks Live against the triangle list: a cell
// is live exactly when some triangle uses it.
func TestLiveAgainstTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		inst := NewInstance(n,
			randomSupport(rng, n, rng.Intn(3*n)),
			randomSupport(rng, n, rng.Intn(3*n)),
			randomSupport(rng, n, rng.Intn(3*n)))
		on := [3]map[[2]int32]bool{{}, {}, {}}
		for _, tr := range bruteTriangles(inst) {
			on[0][[2]int32{tr.I, tr.J}] = true
			on[1][[2]int32{tr.J, tr.K}] = true
			on[2][[2]int32{tr.I, tr.K}] = true
		}
		a, b, x := inst.Live()
		for m, c := range []struct {
			sup  *matrix.Support
			live []bool
		}{{inst.Ahat, a}, {inst.Bhat, b}, {inst.Xhat, x}} {
			if len(c.live) != c.sup.NNZ {
				t.Fatalf("trial %d matrix %d: %d marks for %d cells", trial, m, len(c.live), c.sup.NNZ)
			}
			pos := 0
			for i := range c.sup.N {
				for _, j := range c.sup.Row(i) {
					if c.live[pos] != on[m][[2]int32{int32(i), j}] {
						t.Fatalf("trial %d matrix %d: cell (%d,%d) live=%v", trial, m, i, j, c.live[pos])
					}
					pos++
				}
			}
		}
	}
}

func TestTrianglesDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 10
	inst := NewInstance(n,
		randomSupport(rng, n, 25), randomSupport(rng, n, 25), randomSupport(rng, n, 25))
	ts := inst.Triangles()
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if a.I > b.I || (a.I == b.I && a.J > b.J) ||
			(a.I == b.I && a.J == b.J && a.K >= b.K) {
			t.Fatalf("not lexicographic at %d: %v, %v", i, a, b)
		}
	}
}

func TestUSTriangleBound(t *testing.T) {
	// Corollary 4.6: a [US:US:AS] instance has at most d^2·n triangles;
	// Lemma 4.3: each node touches at most d^2.
	rng := rand.New(rand.NewSource(8))
	n, d := 24, 3
	// Build US(d) supports: union of d random permutations.
	perm := func() [][2]int {
		var es [][2]int
		for t := 0; t < d; t++ {
			p := rng.Perm(n)
			for i, j := range p {
				es = append(es, [2]int{i, j})
			}
		}
		return es
	}
	ahat := matrix.NewSupport(n, perm())
	bhat := matrix.NewSupport(n, perm())
	xhat := randomSupport(rng, n, d*n) // AS(d)
	inst := NewInstance(d, ahat, bhat, xhat)
	tris := inst.Triangles()
	if len(tris) > d*d*n {
		t.Fatalf("|T| = %d > d^2 n = %d", len(tris), d*d*n)
	}
	for v, c := range NodeCounts(tris, n) {
		if c > d*d {
			t.Fatalf("node %d touches %d > d^2 triangles", v, c)
		}
	}
	if m := PairMultiplicity(tris); m > d*d {
		t.Fatalf("pair multiplicity %d > d^2", m)
	}
}

func TestNodeAddressing(t *testing.T) {
	if SideI.String() != "I" || SideJ.String() != "J" || SideK.String() != "K" {
		t.Error("Side names")
	}
}

func TestNodeCountsAndMax(t *testing.T) {
	n := 4
	tris := []Triangle{{0, 1, 2}, {0, 1, 3}, {1, 1, 2}}
	counts := NodeCounts(tris, n)
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("I counts wrong: %v", counts[:n])
	}
	if counts[n+1] != 3 {
		t.Errorf("J count wrong: %d", counts[n+1])
	}
	if counts[2*n+2] != 2 || counts[2*n+3] != 1 {
		t.Errorf("K counts wrong")
	}
}

func TestPairMultiplicity(t *testing.T) {
	tris := []Triangle{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {5, 1, 4}}
	if m := PairMultiplicity(tris); m != 3 { // pair (I=0,J=1) in 3 triangles
		t.Errorf("PairMultiplicity = %d, want 3", m)
	}
	if m := PairMultiplicity(nil); m != 0 {
		t.Errorf("empty PairMultiplicity = %d", m)
	}
}

func TestClusterInducedPartition(t *testing.T) {
	c := Cluster{I: []int32{0, 1}, J: []int32{2, 3}, K: []int32{4, 5}}
	if !c.Valid(2) || c.Valid(3) {
		t.Error("Valid wrong")
	}
	dup := Cluster{I: []int32{0, 0}, J: []int32{2, 3}, K: []int32{4, 5}}
	if dup.Valid(2) {
		t.Error("duplicate members must be invalid")
	}
	tris := []Triangle{
		{0, 2, 4}, // inside
		{1, 3, 5}, // inside
		{0, 2, 6}, // K outside
		{7, 2, 4}, // I outside
	}
	inside, outside := c.Partition(tris)
	if len(inside) != 2 || len(outside) != 2 {
		t.Fatalf("Partition: %d inside, %d outside", len(inside), len(outside))
	}
	ind := c.Induced(tris)
	if !sameTriangles(ind, inside) {
		t.Error("Induced != Partition inside")
	}
	if len(inside)+len(outside) != len(tris) {
		t.Error("Partition loses triangles")
	}
}

func TestInstanceClassify(t *testing.T) {
	n, d := 8, 2
	diag := make([][2]int, n)
	for i := range diag {
		diag[i] = [2]int{i, i}
	}
	us := matrix.NewSupport(n, diag)
	var dense [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dense = append(dense, [2]int{i, j})
		}
	}
	gm := matrix.NewSupport(n, dense)
	inst := NewInstance(d, us, us, gm)
	a, b, x := inst.Classify()
	if a != matrix.US || b != matrix.US || x != matrix.GM {
		t.Errorf("Classify = %v %v %v", a, b, x)
	}
}

func TestNewInstancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewInstance(1, matrix.NewSupport(2, nil), matrix.NewSupport(3, nil), matrix.NewSupport(2, nil))
}
