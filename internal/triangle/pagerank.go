package triangle

import (
	"fmt"
	"math"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// PageRank runs the classic damped power iteration on g in the low-bandwidth
// model: each step is the matrix-vector product y = M·x, which in the
// paper's setting is a sparse matrix multiplication with a CS(1) right-hand
// side (a vector is an n×n matrix with a single dense column) — a class-2
// instance solved by Lemma 3.1 in O(d² + log n) rounds per iteration.
//
// Because the structure (graph + vector shape) is fixed across iterations,
// the supported-model preprocessing is computed ONCE via algo.Prepare and
// reused: the per-iteration rounds are identical by construction.
//
// Returns the rank vector, the total model rounds across iterations, and
// the rounds of one iteration.
func PageRank(g *Graph, damping float64, iters int) ([]float64, int, int, error) {
	if iters < 1 {
		return nil, 0, 0, fmt.Errorf("triangle: need at least one iteration")
	}
	n := g.N
	r := ring.Real{}

	// M = damping · A^T D^{-1}: column j of M distributes node j's rank to
	// its neighbours. Dangling nodes keep their rank mass out (standard
	// simplified treatment).
	m := matrix.NewSparse(n, r)
	for j := 0; j < n; j++ {
		deg := len(g.adj[j])
		if deg == 0 {
			continue
		}
		w := damping / float64(deg)
		for _, i := range g.adj[j] {
			m.Set(int(i), j, w)
		}
	}

	// The vector lives in column 0; x̂ = M̂'s rows × {0}.
	var vecEntries [][2]int
	for i := 0; i < n; i++ {
		vecEntries = append(vecEntries, [2]int{i, 0})
	}
	vhat := matrix.NewSupport(n, vecEntries)
	inst := graph.NewInstance(maxInt(g.MaxDegree(), 1), m.Support(), vhat, vhat)

	prep, err := algo.PrepareLemma31(r, inst)
	if err != nil {
		return nil, 0, 0, err
	}

	x := matrix.NewSparse(n, r)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1/float64(n))
	}
	base := (1 - damping) / float64(n)
	totalRounds := 0
	perIter := 0
	for t := 0; t < iters; t++ {
		ys, res, err := prep.MultiplyBatch([]*matrix.Sparse{m}, []*matrix.Sparse{x})
		if err != nil {
			return nil, 0, 0, err
		}
		y := ys[0]
		totalRounds += res.Rounds
		perIter = res.Rounds
		// Free local step at each computer: add the teleport term.
		next := matrix.NewSparse(n, r)
		for i := 0; i < n; i++ {
			next.Set(i, 0, base+y.Get(i, 0))
		}
		x = next
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = x.Get(i, 0)
	}
	return out, totalRounds, perIter, nil
}

// PageRankLocal is the sequential reference power iteration.
func PageRankLocal(g *Graph, damping float64, iters int) []float64 {
	n := g.N
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for t := 0; t < iters; t++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = base
		}
		for j := 0; j < n; j++ {
			deg := len(g.adj[j])
			if deg == 0 {
				continue
			}
			share := damping * x[j] / float64(deg)
			for _, i := range g.adj[j] {
				next[i] += share
			}
		}
		x = next
	}
	return x
}

// MaxRankError returns the max absolute difference of two rank vectors.
func MaxRankError(a, b []float64) float64 {
	mx := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
