package matrix

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lbmm/internal/ring"
)

func randomSupport(rng *rand.Rand, n, nnz int) *Support {
	entries := make([][2]int, 0, nnz)
	for len(entries) < nnz {
		entries = append(entries, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return NewSupport(n, entries)
}

func TestSupportBasics(t *testing.T) {
	s := NewSupport(4, [][2]int{{0, 1}, {0, 3}, {2, 1}, {0, 1}}) // duplicate collapses
	if s.NNZ != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ)
	}
	if !s.Has(0, 1) || !s.Has(2, 1) || s.Has(1, 1) {
		t.Fatal("Has gives wrong membership")
	}
	if got := s.MaxRowNNZ(); got != 2 {
		t.Errorf("MaxRowNNZ = %d", got)
	}
	if got := s.MaxColNNZ(); got != 2 {
		t.Errorf("MaxColNNZ = %d", got)
	}
	tr := s.Transpose()
	if !tr.Has(1, 0) || !tr.Has(3, 0) || !tr.Has(1, 2) || tr.NNZ != 3 {
		t.Error("Transpose wrong")
	}
	u := Union(s, tr)
	if u.NNZ != 5 { // (0,1),(0,3),(2,1),(1,0),(3,0),(1,2) minus shared none => 6? (0,1)&(1,0) distinct; check
		// entries: s = {(0,1),(0,3),(2,1)}; tr = {(1,0),(3,0),(1,2)}; union = 6.
		if u.NNZ != 6 {
			t.Errorf("Union NNZ = %d, want 6", u.NNZ)
		}
	}
}

func TestSupportOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range entry")
		}
	}()
	NewSupport(2, [][2]int{{0, 2}})
}

func TestClassContainment(t *testing.T) {
	order := []Class{US, RS, CS, BD, AS, GM}
	for _, big := range order {
		if !big.Contains(big) {
			t.Errorf("%v must contain itself", big)
		}
	}
	if !GM.Contains(US) || !AS.Contains(BD) || !BD.Contains(RS) || !BD.Contains(CS) ||
		!RS.Contains(US) || !CS.Contains(US) {
		t.Error("containment lattice broken")
	}
	if RS.Contains(CS) || CS.Contains(RS) {
		t.Error("RS and CS must be incomparable")
	}
	if US.Contains(RS) || BD.Contains(AS) || AS.Contains(GM) {
		t.Error("reverse containments must fail")
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range []Class{US, RS, CS, BD, AS, GM} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%v) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseClass("XX"); err == nil {
		t.Error("ParseClass must reject unknown names")
	}
}

func TestClassifyExamples(t *testing.T) {
	n := 8
	// Diagonal: US(1).
	diag := make([][2]int, n)
	for i := range diag {
		diag[i] = [2]int{i, i}
	}
	if got := NewSupport(n, diag).Classify(1); got != US {
		t.Errorf("diagonal classified %v", got)
	}
	// One dense row: RS(n) but at d=1 it is row n-dense: with d=1 it is CS(1)?
	// A single dense row has every column with exactly 1 entry, so it is
	// CS(1) but not RS(1); classification at d=1 must say CS.
	denseRow := make([][2]int, n)
	for j := range denseRow {
		denseRow[j] = [2]int{0, j}
	}
	if got := NewSupport(n, denseRow).Classify(1); got != CS {
		t.Errorf("dense row classified %v, want CS", got)
	}
	// One dense column: RS(1).
	denseCol := make([][2]int, n)
	for i := range denseCol {
		denseCol[i] = [2]int{i, 0}
	}
	if got := NewSupport(n, denseCol).Classify(1); got != RS {
		t.Errorf("dense column classified %v, want RS", got)
	}
	// Dense row + dense column: BD(1) (peel row then column) but neither RS(1)
	// nor CS(1).
	cross := append(append([][2]int{}, denseRow...), denseCol...)
	crossS := NewSupport(n, cross)
	if got := crossS.Classify(1); got != BD {
		t.Errorf("cross classified %v, want BD (degeneracy=%d)", got, crossS.Degeneracy())
	}
	// Full matrix at small d: GM.
	var full [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			full = append(full, [2]int{i, j})
		}
	}
	if got := NewSupport(n, full).Classify(1); got != GM {
		t.Errorf("full classified %v, want GM", got)
	}
	// n entries concentrated in one d×d block with d=4: AS(1)? 16 entries on
	// n=8 => nnz=16 ≤ 1·8? no. Use a block of 2x2=4 entries plus scattering:
	// simplest AS example: d+? Use a (d+1)-degenerate core: complete 3x3
	// block on n=9 with d=1: nnz=9 ≤ 9 => AS(1), degeneracy 3 > 1.
	var blk [][2]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			blk = append(blk, [2]int{i, j})
		}
	}
	if got := NewSupport(9, blk).Classify(1); got != AS {
		t.Errorf("block classified %v, want AS", got)
	}
}

func TestDegeneracySmall(t *testing.T) {
	// Complete k×k block has degeneracy k (delete anything: k entries).
	for k := 1; k <= 5; k++ {
		var entries [][2]int
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				entries = append(entries, [2]int{i, j})
			}
		}
		s := NewSupport(k, entries)
		if got := s.Degeneracy(); got != k {
			t.Errorf("K%d,%d degeneracy = %d, want %d", k, k, got, k)
		}
	}
	// Empty support.
	if got := NewSupport(4, nil).Degeneracy(); got != 0 {
		t.Errorf("empty degeneracy = %d", got)
	}
	// Dense row ∪ dense column from 6.1: degeneracy 1.
	n := 6
	var cross [][2]int
	for i := 0; i < n; i++ {
		cross = append(cross, [2]int{0, i}, [2]int{i, 0})
	}
	if got := NewSupport(n, cross).Degeneracy(); got != 1 {
		t.Errorf("cross degeneracy = %d, want 1", got)
	}
}

// TestEliminationOrderWitness checks that the elimination order really
// deletes everything and never exceeds the reported degeneracy.
func TestEliminationOrderWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		n := 4 + rng.Intn(24)
		s := randomSupport(rng, n, rng.Intn(4*n))
		deg, order := s.EliminationOrder()
		cols := colsOf(s)

		rowAlive := make([]bool, n)
		colAlive := make([]bool, n)
		for i := range rowAlive {
			rowAlive[i] = true
			colAlive[i] = true
		}
		remaining := s.NNZ
		for _, st := range order {
			cnt := 0
			if st.IsRow {
				if !rowAlive[st.Index] {
					return false
				}
				rowAlive[st.Index] = false
				for _, j := range s.Row(st.Index) {
					if colAlive[j] {
						cnt++
					}
				}
			} else {
				if !colAlive[st.Index] {
					return false
				}
				colAlive[st.Index] = false
				for _, i := range cols[st.Index] {
					if rowAlive[i] {
						cnt++
					}
				}
			}
			if cnt != st.Degree || cnt > deg {
				return false
			}
			remaining -= cnt
		}
		return remaining == 0 && len(order) == 2*n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// colsOf lists each column's row indices, ascending, from a scan of every
// cell: the reference the package's own column walks are checked against.
func colsOf(s *Support) [][]int32 {
	cols := make([][]int32, s.N)
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if s.Has(i, j) {
				cols[j] = append(cols[j], int32(i))
			}
		}
	}
	return cols
}

// TestColumnWalks: the readers that derive columns from rows agree with a
// scan of every cell. MaxColNNZ is the longest scanned column and the
// transpose's longest row; the transpose's rows are the scanned columns;
// transposing twice gives the original rows back.
func TestColumnWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prop := func(seed int64) bool {
		n := 1 + rng.Intn(24)
		s := randomSupport(rng, n, rng.Intn(4*n))
		cols := colsOf(s)
		longest := 0
		for _, col := range cols {
			longest = max(longest, len(col))
		}
		tr := s.Transpose()
		back := tr.Transpose()
		return s.MaxColNNZ() == longest && s.MaxColNNZ() == tr.MaxRowNNZ() &&
			tr.NNZ == s.NNZ && back.NNZ == s.NNZ &&
			slices.EqualFunc(rowsOf(tr), cols, slices.Equal[[]int32]) &&
			slices.EqualFunc(rowsOf(back), rowsOf(s), slices.Equal[[]int32])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDegeneracyBounds checks degeneracy ≤ min(maxRow, maxCol) — peeling the
// denser side last can always fall back to row-by-row deletion — and that
// degeneracy is monotone under entry removal (on samples).
func TestDegeneracyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(20)
		s := randomSupport(rng, n, rng.Intn(5*n))
		d := s.Degeneracy()
		if mr := s.MaxRowNNZ(); d > mr {
			t.Fatalf("degeneracy %d > max row nnz %d", d, mr)
		}
		if mc := s.MaxColNNZ(); d > mc {
			t.Fatalf("degeneracy %d > max col nnz %d", d, mc)
		}
		if s.NNZ > 0 && d == 0 {
			t.Fatal("nonempty support cannot have degeneracy 0")
		}
	}
}

func TestSparseSetGet(t *testing.T) {
	m := NewSparse(4, ring.Counting{})
	m.Set(1, 2, 5)
	m.Set(1, 0, 3)
	m.Set(1, 2, 7) // overwrite
	if got := m.Get(1, 2); got != 7 {
		t.Errorf("Get = %v", got)
	}
	if got := m.Get(0, 0); got != 0 {
		t.Errorf("absent Get = %v", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
	m.Set(1, 2, 0) // setting zero removes
	if m.NNZ() != 1 || m.Get(1, 2) != 0 {
		t.Error("Set(zero) should remove entry")
	}
	m.Add(1, 0, 4)
	if got := m.Get(1, 0); got != 7 {
		t.Errorf("Add = %v", got)
	}
	sup := m.Support()
	if sup.NNZ != 1 || !sup.Has(1, 0) {
		t.Error("Support wrong")
	}
}

func TestSparseMinPlusZeroHandling(t *testing.T) {
	// For MinPlus the ring zero is +Inf; storing it must not create entries.
	m := NewSparse(2, ring.MinPlus{})
	m.Add(0, 0, 5)
	m.Add(0, 0, 3)
	if got := m.Get(0, 0); got != 3 {
		t.Errorf("tropical Add = %v", got)
	}
}

func TestRandomRealizesSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range ring.All() {
		s := randomSupport(rng, 12, 30)
		m := Random(s, r, 99)
		got := m.Support()
		if got.NNZ != s.NNZ {
			t.Fatalf("%s: support nnz %d != %d", r.Name(), got.NNZ, s.NNZ)
		}
		for _, e := range s.Entries() {
			if !got.Has(e[0], e[1]) {
				t.Fatalf("%s: missing entry %v", r.Name(), e)
			}
		}
	}
	// Determinism.
	s := randomSupport(rng, 10, 20)
	a := Random(s, ring.Counting{}, 7)
	b := Random(s, ring.Counting{}, 7)
	if !Equal(a, b) {
		t.Error("Random is not deterministic for a fixed seed")
	}
}

// denseMul is an independent O(n^3) oracle for MulReference.
func denseMul(a, b *Sparse, xhat *Support) *Sparse {
	r := a.R
	x := NewSparse(a.N, r)
	for i := 0; i < a.N; i++ {
		for k := 0; k < a.N; k++ {
			if !xhat.Has(i, k) {
				continue
			}
			acc := r.Zero()
			for j := 0; j < a.N; j++ {
				acc = r.Add(acc, r.Mul(a.Get(i, j), b.Get(j, k)))
			}
			x.Set(i, k, acc)
		}
	}
	return x
}

func TestMulReferenceAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, r := range ring.All() {
		for trial := 0; trial < 10; trial++ {
			n := 3 + rng.Intn(10)
			ahat := randomSupport(rng, n, rng.Intn(3*n))
			bhat := randomSupport(rng, n, rng.Intn(3*n))
			xhat := randomSupport(rng, n, rng.Intn(3*n))
			a := Random(ahat, r, int64(trial))
			b := Random(bhat, r, int64(trial+100))
			got := MulReference(a, b, xhat)
			want := denseMul(a, b, xhat)
			if !Equal(got, want) {
				t.Fatalf("%s n=%d: MulReference mismatch\ngot:\n%v\nwant:\n%v", r.Name(), n, got, want)
			}
		}
	}
}

func TestMaskedAndClone(t *testing.T) {
	s := NewSupport(4, [][2]int{{0, 0}, {1, 1}, {2, 2}})
	m := Random(s, ring.Counting{}, 3)
	c := m.Clone()
	c.Set(1, 1, 99)
	if m.Get(1, 1) == 99 {
		t.Error("Clone aliases original")
	}
}

func TestEqualDifferentShapes(t *testing.T) {
	a := NewSparse(2, ring.Counting{})
	b := NewSparse(3, ring.Counting{})
	if Equal(a, b) {
		t.Error("different n must not be equal")
	}
	c := NewSparse(2, ring.Counting{})
	c.Set(0, 1, 1)
	d := NewSparse(2, ring.Counting{})
	if Equal(c, d) {
		t.Error("different entries must not be equal")
	}
	d.Set(0, 1, 1)
	if !Equal(c, d) {
		t.Error("identical matrices must be equal")
	}
}
