package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lbmm/internal/ring"
)

// newSupportOracle is NewSupport as it was before it lost its map and its
// per-list sorts, kept as the reference the bucketed construction is compared
// against, as row lists. It also returns the column lists it builds
// alongside the rows, which the derived columns (Transpose's rows) are
// compared against.
func newSupportOracle(n int, entries [][2]int) (rows, cols [][]int32) {
	rows, cols = make([][]int32, n), make([][]int32, n)
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
		rows[i] = append(rows[i], int32(j))
		cols[j] = append(cols[j], int32(i))
	}
	for _, lists := range [][][]int32{rows, cols} {
		for _, xs := range lists {
			sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
		}
	}
	return rows, cols
}

// rowsOf lists s's rows through Row.
func rowsOf(s *Support) [][]int32 {
	rows := make([][]int32, s.N)
	for i := range rows {
		rows[i] = s.Row(i)
	}
	return rows
}

// sameRows reports whether s holds exactly rows, an empty row equal to a
// nil one, with NNZ and the offsets' ends to match.
func sameRows(s *Support, rows [][]int32) bool {
	nnz := 0
	for _, row := range rows {
		nnz += len(row)
	}
	return s.N == len(rows) && s.NNZ == nnz && len(s.Col) == nnz && len(s.Off) == s.N+1 &&
		s.Off[0] == 0 && int(s.Off[s.N]) == nnz &&
		slices.EqualFunc(rowsOf(s), rows, slices.Equal[[]int32])
}

// sameSupport compares row by row, an empty row equal to a nil one.
func sameSupport(a, b *Support) bool { return sameRows(a, rowsOf(b)) }

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
		if !sameRows(got, want) {
			t.Fatalf("trial %d: NewSupport(%d, %v) = %+v, oracle %v", trial, n, entries, got, want)
		}
		if cols := rowsOf(got.Transpose()); !slices.EqualFunc(cols, wantCols, slices.Equal[[]int32]) {
			t.Fatalf("trial %d: columns of NewSupport(%d, %v) = %v, oracle %v", trial, n, entries, cols, wantCols)
		}
		m := NewSparse(n, ring.Counting{})
		for _, e := range entries {
			m.Set(e[0], e[1], 1)
		}
		if got := m.Support(); !sameRows(got, want) {
			t.Fatalf("trial %d: Sparse.Support() = %+v, want %v", trial, got, want)
		}
		// Appending to a row must not reach into its neighbour's cells: the
		// rows are views into one slab with clipped capacities.
		grown := rowsOf(got)
		for i := range grown {
			grown[i] = append(grown[i], -1)
		}
		for i, row := range grown {
			if !slices.Equal(row[:len(row)-1], want[i]) {
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

// TestSupportFromCSRRefuses: the validating constructor refuses every
// malformed pair of slabs with an error naming the fault, and takes a
// well-formed pair as it is.
func TestSupportFromCSRRefuses(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		off, col []int32
		want     string
	}{
		{"dimension 0", 0, []int32{0}, nil, "dimension 0"},
		{"short offsets", 3, []int32{0, 1, 2}, []int32{0, 1}, "3 row offsets for dimension 3"},
		{"first offset not 0", 2, []int32{1, 1, 2}, []int32{0, 1}, "run from 1 to 2"},
		{"last offset not len(Col)", 2, []int32{0, 1, 2}, []int32{0, 1, 1}, "run from 0 to 2 over 3"},
		{"decreasing offset", 3, []int32{0, 2, 1, 2}, []int32{0, 1}, "row 1 offsets run from 2 to 1"},
		{"offset past the columns", 3, []int32{0, 3, 2, 2}, make([]int32, 2, 4), "row 0 offsets run from 0 to 3 over 2"},
		{"column n", 2, []int32{0, 1, 1}, []int32{2}, "(0,2) out of range"},
		{"negative column", 2, []int32{0, 0, 1}, []int32{-1}, "(1,-1) out of range"},
		{"repeated column", 2, []int32{0, 2, 2}, []int32{1, 1}, "row 0 not strictly ascending"},
		{"descending row", 3, []int32{0, 0, 2, 2}, []int32{2, 0}, "row 1 not strictly ascending"},
	} {
		if s, err := SupportFromCSR(tc.n, tc.off, tc.col); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SupportFromCSR = %+v, %v; want an error containing %q", tc.name, s, err, tc.want)
		}
	}
	off, col := []int32{0, 2, 2, 3}, []int32{0, 2, 1}
	s, err := SupportFromCSR(3, off, col)
	if err != nil || s.N != 3 || s.NNZ != 3 || &s.Off[0] != &off[0] || &s.Col[0] != &col[0] ||
		!slices.Equal(s.Row(0), []int32{0, 2}) || len(s.Row(1)) != 0 || !slices.Equal(s.Row(2), []int32{1}) {
		t.Fatalf("SupportFromCSR of a well-formed pair = %+v, %v", s, err)
	}
}
