package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lbmm/internal/ring"
)

// newSupportOracle is NewSupport as it was before it lost its map and its
// per-list sorts, kept as the reference the bucketed construction is compared
// against. It also returns the column lists it builds alongside the rows,
// which the derived columns (Transpose's rows) are compared against.
func newSupportOracle(n int, entries [][2]int) (*Support, [][]int32) {
	s := &Support{N: n, Rows: make([][]int32, n)}
	cols := make([][]int32, n)
	seen := make(map[[2]int]struct{}, len(entries))
	for _, e := range entries {
		i, j := e[0], e[1]
		if i < 0 || i >= n || j < 0 || j >= n {
			panic(fmt.Sprintf("matrix: entry (%d,%d) out of range for n=%d", i, j, n))
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		s.Rows[i] = append(s.Rows[i], int32(j))
		cols[j] = append(cols[j], int32(i))
		s.NNZ++
	}
	for _, lists := range [][][]int32{s.Rows, cols} {
		for _, xs := range lists {
			sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		}
	}
	return s, cols
}

// sameSupport compares field by field, an empty list equal to a nil one.
func sameSupport(a, b *Support) bool {
	return a.N == b.N && a.NNZ == b.NNZ &&
		slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]int32])
}

// TestNewSupportMatchesOracle: over random entry lists with duplicates, in
// random and in row-major order, the bucketed NewSupport builds what the
// map-and-sort construction built, and Sparse.Support of the matrix holding
// those entries builds the same again through the linear path.
func TestNewSupportMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		entries := make([][2]int, rng.Intn(4*n))
		for k := range entries {
			entries[k] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		if trial%3 == 0 {
			sort.Slice(entries, func(a, b int) bool {
				return entries[a][0] < entries[b][0] || (entries[a][0] == entries[b][0] && entries[a][1] < entries[b][1])
			})
		}
		want, wantCols := newSupportOracle(n, entries)
		got := NewSupport(n, entries)
		if !sameSupport(got, want) {
			t.Fatalf("trial %d: NewSupport(%d, %v) = %+v, oracle %+v", trial, n, entries, got, want)
		}
		if cols := got.Transpose().Rows; !slices.EqualFunc(cols, wantCols, slices.Equal[[]int32]) {
			t.Fatalf("trial %d: columns of NewSupport(%d, %v) = %v, oracle %v", trial, n, entries, cols, wantCols)
		}
		m := NewSparse(n, ring.Counting{})
		for _, e := range entries {
			m.Set(e[0], e[1], 1)
		}
		if got := m.Support(); !sameSupport(got, want) {
			t.Fatalf("trial %d: Sparse.Support() = %+v, want %+v", trial, got, want)
		}
		// Appending to a row must not reach into its neighbour's cells: the
		// lists share a backing slice with clipped capacities.
		for i := range got.Rows {
			got.Rows[i] = append(got.Rows[i], -1)
		}
		for i, row := range got.Rows {
			if !slices.Equal(row[:len(row)-1], want.Rows[i]) {
				t.Fatalf("trial %d: row %d clobbered by an append to another row", trial, i)
			}
		}
	}
}

// TestSparseSupportUnsortedRows pins the fallback: Rows is an exported field,
// and a caller that broke its sortedness still gets the sorted, deduplicated
// support the any-order constructor builds.
func TestSparseSupportUnsortedRows(t *testing.T) {
	m := NewSparse(3, ring.Counting{})
	m.Rows[1] = []Cell{{Col: 2, Val: 1}, {Col: 0, Val: 1}, {Col: 2, Val: 5}}
	want := NewSupport(3, [][2]int{{1, 0}, {1, 2}})
	if got := m.Support(); !sameSupport(got, want) {
		t.Fatalf("Support() of unsorted rows = %+v, want %+v", got, want)
	}
	if got := NewSparse(0, ring.Counting{}).Support(); got.N != 0 || got.NNZ != 0 {
		t.Fatalf("Support() of the 0×0 matrix = %+v", got)
	}
}
