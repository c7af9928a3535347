// Package graph implements the tripartite triangle view of a sparse matrix
// multiplication instance (paper §2.2): indices live in three disjoint sets
// I, J, K of size n; a triangle is a triple {i, j, k} with Â_ij ≠ 0,
// B̂_jk ≠ 0 and X̂_ik ≠ 0. Processing a triangle means accumulating
// A_ij·B_jk into X_ik, and processing all triangles is exactly computing the
// masked product.
package graph

import (
	"cmp"
	"fmt"

	"lbmm/internal/matrix"
)

// Instance is a supported sparse multiplication instance: the three
// indicator matrices plus the sparsity parameter d they are measured at.
type Instance struct {
	N    int
	D    int
	Ahat *matrix.Support
	Bhat *matrix.Support
	Xhat *matrix.Support
}

// NewInstance validates dimensions and returns the instance.
func NewInstance(d int, ahat, bhat, xhat *matrix.Support) *Instance {
	if ahat.N != bhat.N || ahat.N != xhat.N {
		panic("graph: support dimension mismatch")
	}
	return &Instance{N: ahat.N, D: d, Ahat: ahat, Bhat: bhat, Xhat: xhat}
}

// Classify returns the sparsity classes of Â, B̂ and X̂ at parameter D,
// counting their columns in one shared n-entry table.
func (inst *Instance) Classify() (a, b, x matrix.Class) {
	colLen := make([]int32, inst.N)
	return inst.Ahat.ClassifyWith(inst.D, colLen), inst.Bhat.ClassifyWith(inst.D, colLen), inst.Xhat.ClassifyWith(inst.D, colLen)
}

// Triangle is a support triangle {i, j, k}: the product A_ij·B_jk
// contributes to the output of interest X_ik.
type Triangle struct {
	I, J, K int32
}

func (t Triangle) String() string { return fmt.Sprintf("{%d,%d,%d}", t.I, t.J, t.K) }

// Triangles enumerates every triangle of the instance, in deterministic
// (i, j, k) lexicographic order (walk).
func (inst *Instance) Triangles() []Triangle {
	var out []Triangle
	ahat, bhat := inst.Ahat, inst.Bhat
	inst.walk(func(i, pa, pb, _ int32) {
		out = append(out, Triangle{I: i, J: ahat.Col[pa], K: bhat.Col[pb]})
	})
	return out
}

// Live marks the cells that lie on at least one triangle: a[p], b[p] and
// x[p] report it for the p-th entry, in row-major order, of Â, B̂ and X̂.
// A cell it leaves false never sends, never receives and never changes the
// product.
func (inst *Instance) Live() (a, b, x []bool) {
	a, b, x = inst.liveMarks()
	inst.walk(func(_, pa, pb, px int32) {
		a[pa], b[pb], x[px] = true, true, true
	})
	return a, b, x
}

// Pos is where a triangle's three cells lie in the supports: A, B and X
// are the positions (indices into Col) of its cells (i, j) in Â, (j, k) in
// B̂ and (i, k) in X̂. A support lists its rows in order and each row's
// columns sorted, so positions order the cells of one support as their
// (row, column) pairs do.
type Pos struct {
	A, B, X int32
}

// TrianglesLive returns Triangles, each triangle's cell positions (pos[t]
// are tris[t]'s) and Live from one walk.
func (inst *Instance) TrianglesLive() (tris []Triangle, pos []Pos, a, b, x []bool) {
	a, b, x = inst.liveMarks()
	ahat, bhat := inst.Ahat, inst.Bhat
	// Room for half as many again as random supports of these densities
	// close, so that the lists grow only on a structure far from random: of
	// the pairs of an A cell (i, j) and a B cell (j, k) in row i, a share
	// |X̂ row i|/n meet an X cell (i, k). Pairs need not close at all, so
	// the room is capped at the cells of the supports: the lists are
	// allocated in proportion to the input, not to its pairs.
	closing := 0
	for i := range inst.N {
		xs := int(inst.Xhat.Off[i+1] - inst.Xhat.Off[i])
		if xs == 0 {
			continue
		}
		pairs := 0
		for _, j := range ahat.Col[ahat.Off[i]:ahat.Off[i+1]] {
			pairs += int(bhat.Off[j+1] - bhat.Off[j])
		}
		closing += pairs * xs
	}
	room := min(closing*3/(2*inst.N)+8, len(a)+len(b)+len(x))
	tris, pos = make([]Triangle, 0, room), make([]Pos, 0, room)
	inst.walk(func(i, pa, pb, px int32) {
		tris = append(tris, Triangle{I: i, J: ahat.Col[pa], K: bhat.Col[pb]})
		pos = append(pos, Pos{A: pa, B: pb, X: px})
		a[pa], b[pb], x[px] = true, true, true
	})
	return tris, pos, a, b, x
}

// liveMarks returns Live's tables, every cell unmarked, cut from one slab.
func (inst *Instance) liveMarks() (a, b, x []bool) {
	marks := make([]bool, inst.Ahat.NNZ+inst.Bhat.NNZ+inst.Xhat.NNZ)
	na, nb := inst.Ahat.NNZ, inst.Ahat.NNZ+inst.Bhat.NNZ
	return marks[:na:na], marks[na:nb:nb], marks[nb:]
}

// CountTriangles returns |T̂| without materializing the set.
func (inst *Instance) CountTriangles() int {
	total := 0
	inst.walk(func(_, _, _, _ int32) { total++ })
	return total
}

// walk hands f every triangle {i, j, k} in (i, j, k) lexicographic order,
// as its row i and the positions pa, pb and px of its cells (i, j), (j, k)
// and (i, k) in Â, B̂ and X̂ — a cell's position is its index into Col.
// Per row i, the columns of X̂ row i are stamped into one n-entry table
// with their positions; each A cell (i, j) then probes that table once per
// cell of B̂ row j, in B̂'s sorted column order, so the work is
// O(Σ_(i,j)∈Â |B̂ row j| + nnz(X̂)) plus one call per triangle.
func (inst *Instance) walk(f func(i, pa, pb, px int32)) {
	ahat, bhat, xhat := inst.Ahat, inst.Bhat, inst.Xhat
	// xAt[k] is one past the position of X̂ cell (i, k) while row i is
	// stamped. Positions of different rows never overlap, so a stamp left
	// by an earlier row falls below the current row's start and reads as no
	// cell.
	xAt := make([]int32, inst.N)
	for i := range int32(inst.N) {
		lo, hi := xhat.Off[i], xhat.Off[i+1]
		if lo == hi {
			continue
		}
		for q, k := range xhat.Col[lo:hi] {
			xAt[k] = lo + int32(q) + 1
		}
		for pa := ahat.Off[i]; pa < ahat.Off[i+1]; pa++ {
			j := ahat.Col[pa]
			pb := bhat.Off[j]
			for at, k := range bhat.Col[pb:bhat.Off[j+1]] {
				if q := xAt[k]; q > lo {
					f(i, pa, pb+int32(at), q-1)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Node addressing over V = I ∪ J ∪ K

// Side identifies which of the three index sets a node belongs to.
type Side uint8

const (
	SideI Side = iota
	SideJ
	SideK
)

func (s Side) String() string { return [...]string{"I", "J", "K"}[s] }

// NodeCounts returns t(v) — the number of triangles touching each node
// v ∈ V, indexed by packed node id (length 3n).
func NodeCounts(tris []Triangle, n int) []int {
	t := make([]int, 3*n)
	for _, tri := range tris {
		t[tri.I]++
		t[n+int(tri.J)]++
		t[2*n+int(tri.K)]++
	}
	return t
}

// PairKind identifies the three edge types of the tripartite graph.
type PairKind uint8

const (
	PairIJ PairKind = iota // an entry of Â
	PairJK                 // an entry of B̂
	PairIK                 // an entry of X̂
)

// PairMultiplicity returns the maximum, over all node pairs {u, v}, of the
// number of triangles containing that pair — the parameter m of Lemma 3.1.
func PairMultiplicity(tris []Triangle) int {
	ij := map[[2]int32]int{}
	jk := map[[2]int32]int{}
	ik := map[[2]int32]int{}
	m := 0
	bump := func(mp map[[2]int32]int, a, b int32) {
		k := [2]int32{a, b}
		mp[k]++
		if mp[k] > m {
			m = mp[k]
		}
	}
	for _, t := range tris {
		bump(ij, t.I, t.J)
		bump(jk, t.J, t.K)
		bump(ik, t.I, t.K)
	}
	return m
}

// ---------------------------------------------------------------------------
// Clusters (paper §2.3)

// Cluster is a set U = I' ∪ J' ∪ K' with |I'| = |J'| = |K'| = d.
type Cluster struct {
	I, J, K []int32
}

// Valid reports whether the cluster has the required equal part sizes and no
// duplicate members.
func (c Cluster) Valid(d int) bool {
	if len(c.I) != d || len(c.J) != d || len(c.K) != d {
		return false
	}
	for _, part := range [][]int32{c.I, c.J, c.K} {
		seen := map[int32]bool{}
		for _, v := range part {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// Induced returns T[U]: the triangles of tris fully contained in the
// cluster.
func (c Cluster) Induced(tris []Triangle) []Triangle {
	inI := int32Set(c.I)
	inJ := int32Set(c.J)
	inK := int32Set(c.K)
	var out []Triangle
	for _, t := range tris {
		if inI[t.I] && inJ[t.J] && inK[t.K] {
			out = append(out, t)
		}
	}
	return out
}

// Partition splits tris into (inside, outside) relative to the cluster,
// preserving order. A triangle is inside only if all three nodes belong to
// the cluster.
func (c Cluster) Partition(tris []Triangle) (inside, outside []Triangle) {
	inI := int32Set(c.I)
	inJ := int32Set(c.J)
	inK := int32Set(c.K)
	for _, t := range tris {
		if inI[t.I] && inJ[t.J] && inK[t.K] {
			inside = append(inside, t)
		} else {
			outside = append(outside, t)
		}
	}
	return inside, outside
}

func int32Set(xs []int32) map[int32]bool {
	s := make(map[int32]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// Compare orders triangles lexicographically by (I, J, K), the order the
// triangle walk lists them in.
func Compare(a, b Triangle) int {
	return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J), cmp.Compare(a.K, b.K))
}
