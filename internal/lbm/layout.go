package lbm

import (
	"fmt"
	"slices"

	"lbmm/internal/matrix"
)

// Layout assigns every input element of A and B and every output element of
// X to an owning computer. Like everything in the supported model, a layout
// is a function of the supports only; the paper notes (§2) that algorithms
// are insensitive to the distribution up to an additive O(d) permutation
// cost, while lower bounds hold for any fixed support-dependent layout.
type Layout struct {
	N       int
	A, B, X Owners
}

// Owners is one matrix's part of a layout: its support, and the rule that
// owns each support position on an n-computer machine.
type Owners struct {
	Sup   *matrix.Support
	place Placement
	n     int
}

// At returns the owner of the support position k, which lies in row i: the
// one owner rule (Placement.Owner) at the layout's machine size. A planner
// that walks the supports knows each cell's position and asks here.
func (o *Owners) At(i, k int32) NodeID { return o.place.Owner(o.n, i, k) }

// pos returns the support position of cell (i, j), or false when the
// support has no such cell.
func (o *Owners) pos(i, j int32) (int32, bool) {
	if i < 0 || int(i) >= o.Sup.N {
		return 0, false
	}
	k, ok := slices.BinarySearch(o.Sup.Row(int(i)), j)
	return o.Sup.Off[i] + int32(k), ok
}

// each hands f every support position, in row-major order: its owner, its
// row i and its index k in the support's Col.
func (o *Owners) each(f func(owner NodeID, i, k int32)) {
	for i := range int32(o.Sup.N) {
		for k := o.Sup.Off[i]; k < o.Sup.Off[i+1]; k++ {
			f(o.place.Owner(o.n, i, k), i, k)
		}
	}
}

// owners returns the owners of the matrix whose cells have kind k: KA, KB
// or KX.
func (l *Layout) owners(k Kind) *Owners {
	switch k {
	case KA:
		return &l.A
	case KB:
		return &l.B
	}
	return &l.X
}

// OwnerA returns the computer initially holding A_ij (the p(i,j) of §3.3).
func (l *Layout) OwnerA(i, j int32) NodeID { return l.A.must(i, j, "A") }

// OwnerB returns the computer initially holding B_jk.
func (l *Layout) OwnerB(j, k int32) NodeID { return l.B.must(j, k, "B") }

// OwnerX returns the computer that must report X_ik.
func (l *Layout) OwnerX(i, k int32) NodeID { return l.X.must(i, k, "X") }

// owned returns the position of cell (i, j) if node owns it. Under ByRow a
// row's cells are its own computer's, which rules out every other node
// without a search.
func (o *Owners) owned(node NodeID, i, j int32) (int32, bool) {
	if o.place == ByRow && node != i {
		return 0, false
	}
	k, ok := o.pos(i, j)
	if !ok || o.At(i, k) != node {
		return 0, false
	}
	return k, true
}

// must returns the owner of cell (i, j), searching row i for it: for the
// callers that hold a cell, not its position, such as the dense planners'
// cluster triangles and the map oracle's outputs.
func (o *Owners) must(i, j int32, what string) NodeID {
	k, ok := o.pos(i, j)
	if !ok {
		panic(fmt.Sprintf("lbm: layout has no owner for %s(%d,%d)", what, i, j))
	}
	return o.At(i, k)
}

// MaxPerNode returns, per matrix, the largest number of elements any single
// computer owns — the d of Lemma 3.1's input assumption.
func (l *Layout) MaxPerNode() (a, b, x int) {
	count := func(o Owners) int {
		per := make([]int, l.N)
		mx := 0
		o.each(func(v NodeID, _, _ int32) {
			per[v]++
			mx = max(mx, per[v])
		})
		return mx
	}
	return count(l.A), count(l.B), count(l.X)
}

// Placement is the rule a layout places each support's entries by: ByRow,
// the paper's canonical layout for uniformly sparse instances, where
// computer i holds row i of A, row i of B and reports row i of X; or
// Balanced, which spreads each matrix's entries over the n computers in
// row-major round-robin order, so each owns at most ⌈nnz/n⌉ of them — the
// "each computer holds at most d elements" layout the paper assumes for
// average-sparse inputs.
type Placement uint8

const (
	ByRow Placement = iota
	Balanced
)

// Owner returns the computer of an n-computer machine that owns the entry
// at row-major position k of a support, which lies in row i. It is the one
// owner rule: every layout owns its entries by it, and a plan decoded from
// its envelope derives its load slots by it without building one.
func (p Placement) Owner(n int, i, k int32) NodeID {
	if p == Balanced {
		return k % int32(n)
	}
	return i
}

// Owned adds to per[v], for every node v of an n-node machine, how many of
// sup's positions v owns: Owner's rule counted in closed form.
func (p Placement) Owned(n int, sup *matrix.Support, per []int32) {
	if p == Balanced {
		q, r := int32(sup.NNZ/n), sup.NNZ%n
		for v := range per[:n] {
			per[v] += q
			if v < r {
				per[v]++
			}
		}
		return
	}
	for i := range sup.N {
		per[i] += sup.Off[i+1] - sup.Off[i]
	}
}

// Layout lays out the three supports by p.
func (p Placement) Layout(ahat, bhat, xhat *matrix.Support) *Layout {
	n := ahat.N
	lay := func(s *matrix.Support) Owners { return Owners{Sup: s, place: p, n: n} }
	return &Layout{N: n, A: lay(ahat), B: lay(bhat), X: lay(xhat)}
}

// LoadInputs places A and B at their owners: every position of the
// layout's supports, an absent value as the ring Zero (matrix.Sparse.Get),
// so that a fixed plan finds all its sources.
func LoadInputs(m *Machine, l *Layout, a, b *matrix.Sparse) {
	load := func(o *Owners, v *matrix.Sparse, key func(i, j int32) Key) {
		o.each(func(owner NodeID, i, k int32) {
			j := o.Sup.Col[k]
			m.Put(owner, key(i, j), v.Get(int(i), int(j)))
		})
	}
	load(&l.A, a, AKey)
	load(&l.B, b, BKey)
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
