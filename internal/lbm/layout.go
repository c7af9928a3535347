package lbm

import (
	"fmt"

	"lbmm/internal/matrix"
)

// Layout assigns every input element of A and B and every output element of
// X to an owning computer. Like everything in the supported model, a layout
// is a function of the supports only; the paper notes (§2) that algorithms
// are insensitive to the distribution up to an additive O(d) permutation
// cost, while lower bounds hold for any fixed support-dependent layout.
type Layout struct {
	N int
	A map[[2]int32]NodeID
	B map[[2]int32]NodeID
	X map[[2]int32]NodeID
}

// OwnerA returns the computer initially holding A_ij (the p(i,j) of §3.3).
func (l *Layout) OwnerA(i, j int32) NodeID { return l.owner(l.A, i, j, "A") }

// OwnerB returns the computer initially holding B_jk.
func (l *Layout) OwnerB(j, k int32) NodeID { return l.owner(l.B, j, k, "B") }

// OwnerX returns the computer that must report X_ik.
func (l *Layout) OwnerX(i, k int32) NodeID { return l.owner(l.X, i, k, "X") }

func (l *Layout) owner(m map[[2]int32]NodeID, i, j int32, what string) NodeID {
	v, ok := m[[2]int32{i, j}]
	if !ok {
		panic(fmt.Sprintf("lbm: layout has no owner for %s(%d,%d)", what, i, j))
	}
	return v
}

// MaxPerNode returns, per matrix, the largest number of elements any single
// computer owns — the d of Lemma 3.1's input assumption.
func (l *Layout) MaxPerNode() (a, b, x int) {
	count := func(m map[[2]int32]NodeID) int {
		per := make([]int, l.N)
		mx := 0
		for _, v := range m {
			per[v]++
			if per[v] > mx {
				mx = per[v]
			}
		}
		return mx
	}
	return count(l.A), count(l.B), count(l.X)
}

// RowLayout is the paper's canonical layout for uniformly sparse instances:
// computer i holds row i of A, row i of B, and reports row i of X.
func RowLayout(ahat, bhat, xhat *matrix.Support) *Layout {
	l := &Layout{
		N: ahat.N,
		A: make(map[[2]int32]NodeID, ahat.NNZ),
		B: make(map[[2]int32]NodeID, bhat.NNZ),
		X: make(map[[2]int32]NodeID, xhat.NNZ),
	}
	for i := range ahat.N {
		for _, j := range ahat.Row(i) {
			l.A[[2]int32{int32(i), j}] = NodeID(i)
		}
	}
	for j := range bhat.N {
		for _, k := range bhat.Row(j) {
			l.B[[2]int32{int32(j), k}] = NodeID(j)
		}
	}
	for i := range xhat.N {
		for _, k := range xhat.Row(i) {
			l.X[[2]int32{int32(i), k}] = NodeID(i)
		}
	}
	return l
}

// BalancedLayout spreads the entries of each matrix over the n computers in
// row-major round-robin order, so each computer owns at most ⌈nnz/n⌉
// elements of each matrix. This is the "each computer holds at most d
// elements" layout the paper assumes for average-sparse inputs.
func BalancedLayout(ahat, bhat, xhat *matrix.Support) *Layout {
	l := &Layout{
		N: ahat.N,
		A: make(map[[2]int32]NodeID, ahat.NNZ),
		B: make(map[[2]int32]NodeID, bhat.NNZ),
		X: make(map[[2]int32]NodeID, xhat.NNZ),
	}
	assign := func(s *matrix.Support, dst map[[2]int32]NodeID) {
		next := 0
		for i := range s.N {
			for _, j := range s.Row(i) {
				dst[[2]int32{int32(i), j}] = NodeID(next % s.N)
				next++
			}
		}
	}
	assign(ahat, l.A)
	assign(bhat, l.B)
	assign(xhat, l.X)
	return l
}

// LoadInputs places the values of A and B into their owners' stores. The
// value matrices must realize exactly the supports the layout was built
// from.
func LoadInputs(m *Machine, l *Layout, a, b *matrix.Sparse) {
	for i, row := range a.Rows {
		for _, c := range row {
			m.Put(l.OwnerA(int32(i), c.Col), AKey(int32(i), c.Col), c.Val)
		}
	}
	for j, row := range b.Rows {
		for _, c := range row {
			m.Put(l.OwnerB(int32(j), c.Col), BKey(int32(j), c.Col), c.Val)
		}
	}
}

// CollectX gathers the output values from their owners into a sparse matrix
// for verification. Every requested output position must be present at its
// owner; a missing position is reported as an error (it means the algorithm
// failed to deliver an output the model obliges it to produce). A partitioned
// machine collects only the outputs whose owner it hosts; the coordinator
// merges the disjoint partials.
func CollectX(m *Machine, l *Layout, xhat *matrix.Support) (*matrix.Sparse, error) {
	out := matrix.NewSparse(xhat.N, m.R)
	for i := range xhat.N {
		for _, k := range xhat.Row(i) {
			owner := l.OwnerX(int32(i), k)
			if !m.Owns(owner) {
				continue
			}
			v, ok := m.Get(owner, XKey(int32(i), k))
			if !ok {
				return nil, fmt.Errorf("lbm: owner of X(%d,%d) never received it", i, k)
			}
			out.Set(i, int(k), v)
		}
	}
	return out, nil
}

// ZeroOutputs initializes every output position of interest to the ring
// Zero at its owner. Algorithms that accumulate partial products into X
// keys call this first so that outputs with no triangles still get
// reported.
func ZeroOutputs(m *Machine, l *Layout, xhat *matrix.Support) {
	zero := m.R.Zero()
	for i := range xhat.N {
		for _, k := range xhat.Row(i) {
			m.Put(l.OwnerX(int32(i), k), XKey(int32(i), k), zero)
		}
	}
}
