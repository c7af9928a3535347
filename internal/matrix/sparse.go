package matrix

import (
	"fmt"
	"math/rand"
	"sort"

	"lbmm/internal/ring"
)

// Cell is a single stored entry of a sparse matrix row.
type Cell struct {
	Col int32
	Val ring.Value
}

// Sparse is an n×n sparse matrix over a semiring, stored by rows with sorted
// column indices. Positions outside the stored cells are the ring's Zero.
type Sparse struct {
	N    int
	R    ring.Semiring
	Rows [][]Cell
}

// NewSparse returns the n×n zero matrix over r.
func NewSparse(n int, r ring.Semiring) *Sparse {
	return &Sparse{N: n, R: r, Rows: make([][]Cell, n)}
}

// Set stores value v at (i, j), replacing any existing value. Setting the
// ring Zero removes the entry so supports stay minimal.
func (m *Sparse) Set(i, j int, v ring.Value) {
	row := m.Rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].Col >= int32(j) })
	present := k < len(row) && row[k].Col == int32(j)
	if m.R.Eq(v, m.R.Zero()) {
		if present {
			m.Rows[i] = append(row[:k], row[k+1:]...)
		}
		return
	}
	if present {
		row[k].Val = v
		return
	}
	row = append(row, Cell{})
	copy(row[k+1:], row[k:])
	row[k] = Cell{Col: int32(j), Val: v}
	m.Rows[i] = row
}

// Get returns the value at (i, j), which is the ring Zero for absent cells.
func (m *Sparse) Get(i, j int) ring.Value {
	row := m.Rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].Col >= int32(j) })
	if k < len(row) && row[k].Col == int32(j) {
		return row[k].Val
	}
	return m.R.Zero()
}

// Add accumulates v into (i, j) with the ring addition.
func (m *Sparse) Add(i, j int, v ring.Value) {
	m.Set(i, j, m.R.Add(m.Get(i, j), v))
}

// NNZ returns the number of stored entries.
func (m *Sparse) NNZ() int {
	total := 0
	for _, row := range m.Rows {
		total += len(row)
	}
	return total
}

// Support returns the indicator of the stored entries. Rows is sorted by
// invariant, so the row lists are copied straight out of it into one backing
// slice and finished by SupportFromRows: linear, nothing sorted.
func (m *Sparse) Support() *Support {
	back := make([]int32, 0, m.NNZ())
	rows := make([][]int32, m.N)
	for i, row := range m.Rows {
		if len(row) == 0 {
			continue
		}
		start := len(back)
		for _, c := range row {
			back = append(back, c.Col)
		}
		rows[i] = back[start:len(back):len(back)]
	}
	if s, err := SupportFromRows(m.N, rows); err == nil {
		return s
	}
	// A caller broke the sortedness invariant of the exported Rows field (or
	// the matrix is 0×0): the any-order constructor sorts, collapses
	// duplicates and panics on an out-of-range column as it always did.
	entries := make([][2]int, 0, len(back))
	for i, row := range m.Rows {
		for _, c := range row {
			entries = append(entries, [2]int{i, int(c.Col)})
		}
	}
	return NewSupport(m.N, entries)
}

// Clone returns a deep copy of the matrix.
func (m *Sparse) Clone() *Sparse {
	c := NewSparse(m.N, m.R)
	for i, row := range m.Rows {
		c.Rows[i] = append([]Cell(nil), row...)
	}
	return c
}

// Random fills the given support with random nonzero values of r, seeded
// deterministically. Every support position receives a value, so the value
// matrix realizes the support exactly.
func Random(s *Support, r ring.Semiring, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	m := NewSparse(s.N, r)
	for i, row := range s.Rows {
		cells := make([]Cell, len(row))
		for k, j := range row {
			cells[k] = Cell{Col: j, Val: r.Rand(rng)}
		}
		m.Rows[i] = cells
	}
	return m
}

// Masked returns a copy of m restricted to the entries of s.
func (m *Sparse) Masked(s *Support) *Sparse {
	out := NewSparse(m.N, m.R)
	for i, row := range m.Rows {
		for _, c := range row {
			if s.Has(i, int(c.Col)) {
				out.Set(i, int(c.Col), c.Val)
			}
		}
	}
	return out
}

// MulReference computes the masked product X = A·B restricted to the output
// support xhat, using plain sequential semiring arithmetic. It is the
// correctness oracle for every distributed algorithm in this module.
func MulReference(a, b *Sparse, xhat *Support) *Sparse {
	if a.N != b.N || a.N != xhat.N {
		panic("matrix: MulReference dimension mismatch")
	}
	r := a.R
	x := NewSparse(a.N, r)
	for i := 0; i < a.N; i++ {
		if len(xhat.Rows[i]) == 0 || len(a.Rows[i]) == 0 {
			continue
		}
		// acc accumulates row i of the product over the columns of interest.
		acc := make(map[int32]ring.Value, len(xhat.Rows[i]))
		wanted := make(map[int32]bool, len(xhat.Rows[i]))
		for _, k := range xhat.Rows[i] {
			wanted[k] = true
		}
		for _, ac := range a.Rows[i] {
			j := int(ac.Col)
			for _, bc := range b.Rows[j] {
				if !wanted[bc.Col] {
					continue
				}
				prod := r.Mul(ac.Val, bc.Val)
				if cur, ok := acc[bc.Col]; ok {
					acc[bc.Col] = r.Add(cur, prod)
				} else {
					acc[bc.Col] = prod
				}
			}
		}
		// Every requested output position is reported, including explicit
		// zeros: the model requires each computer to learn its X values.
		for _, k := range xhat.Rows[i] {
			if v, ok := acc[k]; ok {
				x.Set(i, int(k), v)
			}
		}
	}
	return x
}

// Equal reports whether a and b agree on every position, using the ring
// equality of a (tolerant for Real).
func Equal(a, b *Sparse) bool {
	if a.N != b.N {
		return false
	}
	r := a.R
	for i := 0; i < a.N; i++ {
		cols := map[int32]bool{}
		for _, c := range a.Rows[i] {
			cols[c.Col] = true
		}
		for _, c := range b.Rows[i] {
			cols[c.Col] = true
		}
		for j := range cols {
			if !r.Eq(a.Get(i, int(j)), b.Get(i, int(j))) {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Sparse) String() string {
	if m.N > 16 {
		return fmt.Sprintf("Sparse{n=%d nnz=%d ring=%s}", m.N, m.NNZ(), m.R.Name())
	}
	out := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			out += fmt.Sprintf("%6v ", m.Get(i, j))
		}
		out += "\n"
	}
	return out
}
