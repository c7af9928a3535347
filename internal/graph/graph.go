// Package graph implements the tripartite triangle view of a sparse matrix
// multiplication instance (paper §2.2): indices live in three disjoint sets
// I, J, K of size n; a triangle is a triple {i, j, k} with Â_ij ≠ 0,
// B̂_jk ≠ 0 and X̂_ik ≠ 0. Processing a triangle means accumulating
// A_ij·B_jk into X_ik, and processing all triangles is exactly computing the
// masked product.
package graph

import (
	"fmt"
	"sort"

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

// Classify returns the sparsity classes of Â, B̂ and X̂ at parameter D.
func (inst *Instance) Classify() (a, b, x matrix.Class) {
	return inst.Ahat.Classify(inst.D), inst.Bhat.Classify(inst.D), inst.Xhat.Classify(inst.D)
}

// Triangle is a support triangle {i, j, k}: the product A_ij·B_jk
// contributes to the output of interest X_ik.
type Triangle struct {
	I, J, K int32
}

func (t Triangle) String() string { return fmt.Sprintf("{%d,%d,%d}", t.I, t.J, t.K) }

// Triangles enumerates every triangle of the instance, in deterministic
// (i, j, k) lexicographic order. For each entry (i, j) of Â the sorted B̂
// row j is merge-intersected with the sorted X̂ row i, so the total work is
// O(Σ_(i,j)∈Â (|B̂ row j| + |X̂ row i|)) plus the output size.
func (inst *Instance) Triangles() []Triangle {
	var out []Triangle
	for i, arow := range inst.Ahat.Rows {
		xrow := inst.Xhat.Rows[i]
		if len(xrow) == 0 {
			continue
		}
		for _, j := range arow {
			brow := inst.Bhat.Rows[j]
			ai, bi := 0, 0
			for ai < len(xrow) && bi < len(brow) {
				switch {
				case xrow[ai] < brow[bi]:
					ai++
				case xrow[ai] > brow[bi]:
					bi++
				default:
					out = append(out, Triangle{I: int32(i), J: j, K: xrow[ai]})
					ai++
					bi++
				}
			}
		}
	}
	return out
}

// Live marks the cells that lie on at least one triangle: a[p], b[p] and
// x[p] report it for the p-th entry, in row-major order, of Â, B̂ and X̂.
// It is Triangles' walk, recording positions instead of triangles. A cell
// it leaves false never sends, never receives and never changes the
// product.
func (inst *Instance) Live() (a, b, x []bool) {
	a, b, x = make([]bool, inst.Ahat.NNZ), make([]bool, inst.Bhat.NNZ), make([]bool, inst.Xhat.NNZ)
	bStart, xStart := rowStarts(inst.Bhat), rowStarts(inst.Xhat)
	pa := 0
	for i, arow := range inst.Ahat.Rows {
		xrow := inst.Xhat.Rows[i]
		for _, j := range arow {
			brow := inst.Bhat.Rows[j]
			ai, bi := 0, 0
			for ai < len(xrow) && bi < len(brow) {
				switch {
				case xrow[ai] < brow[bi]:
					ai++
				case xrow[ai] > brow[bi]:
					bi++
				default:
					a[pa], b[bStart[j]+bi], x[xStart[i]+ai] = true, true, true
					ai++
					bi++
				}
			}
			pa++
		}
	}
	return a, b, x
}

// rowStarts returns, per row of s, the row-major position of its first
// entry.
func rowStarts(s *matrix.Support) []int {
	out := make([]int, len(s.Rows))
	p := 0
	for i, row := range s.Rows {
		out[i] = p
		p += len(row)
	}
	return out
}

// CountTriangles returns |T̂| without materializing the set.
func (inst *Instance) CountTriangles() int {
	total := 0
	for i, row := range inst.Ahat.Rows {
		for _, j := range row {
			xrow := inst.Xhat.Rows[i]
			brow := inst.Bhat.Rows[j]
			ai, bi := 0, 0
			for ai < len(xrow) && bi < len(brow) {
				switch {
				case xrow[ai] < brow[bi]:
					ai++
				case xrow[ai] > brow[bi]:
					bi++
				default:
					total++
					ai++
					bi++
				}
			}
		}
	}
	return total
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

// NodeOf packs (side, index) into a single id in [0, 3n).
func NodeOf(s Side, idx int, n int) int { return int(s)*n + idx }

// SideIdx unpacks a node id.
func SideIdx(v, n int) (Side, int) { return Side(v / n), v % n }

// Nodes returns the three node ids of a triangle.
func (t Triangle) Nodes(n int) [3]int {
	return [3]int{int(t.I), n + int(t.J), 2*n + int(t.K)}
}

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

// MaxNodeCount returns max_v t(v), the imbalance the virtualization of
// Lemma 3.1 removes.
func MaxNodeCount(tris []Triangle, n int) int {
	m := 0
	for _, c := range NodeCounts(tris, n) {
		if c > m {
			m = c
		}
	}
	return m
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

// SortTriangles orders triangles lexicographically by (I, J, K) in place.
func SortTriangles(ts []Triangle) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].I != ts[b].I {
			return ts[a].I < ts[b].I
		}
		if ts[a].J != ts[b].J {
			return ts[a].J < ts[b].J
		}
		return ts[a].K < ts[b].K
	})
}
