// Bounded-hop shortest paths via tropical matrix multiplication: the
// min-plus distance product D_{t+1} = D_t ⊗ W on a bounded-degree weighted
// graph is a [US:US:US]-flavoured sparse multiplication per hop — matrix
// powers over a semiring are exactly where the paper's semiring algorithms
// (no subtraction available!) are needed.
//
//	go run ./examples/apsp
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

const (
	n    = 96
	deg  = 3
	hops = 3
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Random weighted graph with max degree ≤ deg.
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	degree := make([]int, n)
	for attempts := 0; attempts < 8*n; attempts++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || degree[u] >= deg || degree[v] >= deg {
			continue
		}
		edges = append(edges, edge{u, v, float64(1 + rng.Intn(9))})
		degree[u]++
		degree[v]++
	}

	// W over MinPlus: weights on edges, One (=0) on the diagonal so that
	// D ⊗ W keeps shorter earlier paths.
	mp := ring.MinPlus{}
	w := matrix.NewSparse(n, mp)
	for i := 0; i < n; i++ {
		w.Set(i, i, mp.One())
	}
	for _, e := range edges {
		w.Set(e.u, e.v, e.w)
		w.Set(e.v, e.u, e.w)
	}

	dist := w.Clone()
	totalRounds := 0
	for t := 1; t < hops; t++ {
		// The supported model knows the next support in advance: the
		// boolean product of the current supports.
		xhat := supportProduct(dist.Support(), w.Support())
		next, rep, err := core.Multiply(dist, w, xhat, core.Options{Ring: mp})
		if err != nil {
			log.Fatal(err)
		}
		totalRounds += rep.Rounds
		fmt.Printf("hop %d: support %d entries, band %v, %d rounds (algorithm %s)\n",
			t+1, xhat.NNZ, rep.Band, rep.Rounds, rep.Name)
		dist = next
	}

	// Verify against local bounded-hop Bellman-Ford.
	ref := bellmanFord(w)
	bad := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := dist.Get(i, j)
			if got != ref[i][j] {
				bad++
			}
		}
	}
	if bad != 0 {
		log.Fatalf("%d distance mismatches", bad)
	}
	fmt.Printf("\nall ≤%d-hop distances verified against Bellman–Ford\n", hops)
	fmt.Printf("total: %d communication rounds across %d distributed products on %d computers\n",
		totalRounds, hops-1, n)
}

// supportProduct returns the boolean product support of two supports.
func supportProduct(a, b *matrix.Support) *matrix.Support {
	var es [][2]int
	for i := range a.N {
		row := a.Row(i)
		seen := map[int32]bool{}
		for _, j := range row {
			for _, k := range b.Row(int(j)) {
				if !seen[k] {
					seen[k] = true
					es = append(es, [2]int{i, int(k)})
				}
			}
		}
	}
	return matrix.NewSupport(a.N, es)
}

// bellmanFord computes exact ≤hops-hop distances sequentially.
func bellmanFord(w *matrix.Sparse) [][]ring.Value {
	dist := make([][]ring.Value, n)
	for i := range dist {
		dist[i] = make([]ring.Value, n)
		for j := range dist[i] {
			dist[i][j] = math.Inf(1)
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range w.Rows[i] {
			dist[i][c.Col] = c.Val
		}
	}
	for t := 1; t < hops; t++ {
		next := make([][]ring.Value, n)
		for i := range next {
			next[i] = append([]ring.Value(nil), dist[i]...)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.IsInf(dist[i][j], 1) {
					continue
				}
				for _, c := range w.Rows[j] {
					if cand := dist[i][j] + c.Val; cand < next[i][c.Col] {
						next[i][c.Col] = cand
					}
				}
			}
		}
		dist = next
	}
	return dist
}
