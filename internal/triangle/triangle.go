// Package triangle implements the paper's motivating application (§1.5):
// triangle detection and counting in graphs via distributed sparse matrix
// multiplication. A bounded-degree graph yields a [US:US:US] instance
// (solved in O(d^1.867) rounds), a sparse graph an [AS:AS:AS] instance —
// exactly the hardness frontier the classification maps out.
package triangle

import (
	"fmt"
	"math/rand"
	"sort"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N   int
	adj [][]int32 // sorted neighbour lists, both directions
}

// NewGraph builds a graph from an edge list; self-loops and duplicates are
// dropped.
func NewGraph(n int, edges [][2]int) *Graph {
	g := &Graph{N: n, adj: make([][]int32, n)}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.adj[u] = append(g.adj[u], int32(v))
		g.adj[v] = append(g.adj[v], int32(u))
	}
	for i := range g.adj {
		sort.Slice(g.adj[i], func(a, b int) bool { return g.adj[i][a] < g.adj[i][b] })
	}
	return g
}

// RandomBoundedDegree returns a random graph with maximum degree ≤ d.
func RandomBoundedDegree(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	var edges [][2]int
	attempts := 4 * n * d
	for len(edges) < n*d/2 && attempts > 0 {
		attempts--
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= d || deg[v] >= d {
			continue
		}
		edges = append(edges, [2]int{u, v})
		deg[u]++
		deg[v]++
	}
	return NewGraph(n, edges)
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for _, row := range g.adj {
		if len(row) > m {
			m = len(row)
		}
	}
	return m
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, row := range g.adj {
		total += len(row)
	}
	return total / 2
}

// adjacency returns the 0/1 adjacency matrix over the given ring.
func (g *Graph) adjacency(r ring.Semiring) *matrix.Sparse {
	m := matrix.NewSparse(g.N, r)
	for u, row := range g.adj {
		for _, v := range row {
			m.Set(u, int(v), r.One())
		}
	}
	return m
}

// CountResult reports a distributed triangle count.
type CountResult struct {
	Triangles int64
	// Report carries the underlying multiplication's measurements.
	Report *core.Report
}

// Count counts the triangles of g by computing X = A·A masked to the edges
// of g over the counting semiring: X_uv is then the number of common
// neighbours of the edge (u,v), and Σ_{(u,v)∈E, both orientations} X_uv
// counts each triangle six times.
func Count(g *Graph, opts core.Options) (*CountResult, error) {
	if opts.Ring == nil {
		opts.Ring = ring.Counting{}
	} else if _, isCounting := opts.Ring.(ring.Counting); !isCounting {
		return nil, fmt.Errorf("triangle: Count requires the counting semiring")
	}
	a := g.adjacency(opts.Ring)
	xhat := a.Support()
	x, rep, err := core.Multiply(a, a, xhat, opts)
	if err != nil {
		return nil, err
	}
	var total int64
	for u, row := range g.adj {
		for _, v := range row {
			total += int64(x.Get(u, int(v)))
		}
	}
	if total%6 != 0 {
		return nil, fmt.Errorf("triangle: inconsistent count %d", total)
	}
	return &CountResult{Triangles: total / 6, Report: rep}, nil
}

// Detect reports whether g contains a triangle, multiplying over the
// Boolean semiring (witness existence only — cheaper messages in spirit).
func Detect(g *Graph, opts core.Options) (bool, *core.Report, error) {
	opts.Ring = ring.Boolean{}
	a := g.adjacency(opts.Ring)
	xhat := a.Support()
	x, rep, err := core.Multiply(a, a, xhat, opts)
	if err != nil {
		return false, nil, err
	}
	for u, row := range g.adj {
		for _, v := range row {
			if x.Get(u, int(v)) == 1 {
				return true, rep, nil
			}
		}
	}
	return false, rep, nil
}

// CountLocal is the sequential reference count (merge-intersection over
// sorted adjacency lists).
func CountLocal(g *Graph) int64 {
	var total int64
	for u, row := range g.adj {
		for _, v := range row {
			if v <= int32(u) {
				continue
			}
			// Count common neighbours w > v to count each triangle once.
			a, b := row, g.adj[v]
			ai, bi := 0, 0
			for ai < len(a) && bi < len(b) {
				switch {
				case a[ai] < b[bi]:
					ai++
				case a[ai] > b[bi]:
					bi++
				default:
					if a[ai] > v {
						total++
					}
					ai++
					bi++
				}
			}
		}
	}
	return total
}

// PreferentialAttachment generates a Barabási–Albert style graph: vertices
// arrive one by one and attach m edges to existing vertices chosen with
// probability proportional to their current degree (plus one, so isolated
// early vertices stay reachable). The resulting degree distribution is
// heavy-tailed — the graphs are average-sparse but not uniformly sparse,
// the regime where the paper's classification matters.
func PreferentialAttachment(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	// Repeated-vertex list: each vertex appears deg+1 times.
	var pool []int
	pool = append(pool, 0)
	for v := 1; v < n; v++ {
		targets := map[int]bool{}
		var picked []int
		for len(targets) < m && len(targets) < v {
			t := pool[rng.Intn(len(pool))]
			if t != v && !targets[t] {
				targets[t] = true
				picked = append(picked, t) // insertion order: deterministic
			}
		}
		for _, t := range picked {
			edges = append(edges, [2]int{v, t})
			pool = append(pool, t)
		}
		pool = append(pool, v)
	}
	return NewGraph(n, edges)
}

// SmallWorld generates a Watts–Strogatz style graph: a ring lattice where
// every vertex connects to its k nearest neighbours, with each edge rewired
// to a random endpoint with probability beta. Bounded degree (≈ uniformly
// sparse) with high clustering — the friendly end of the lattice.
func SmallWorld(n, k int, beta float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 0; v < n; v++ {
		for off := 1; off <= k/2; off++ {
			u := (v + off) % n
			if rng.Float64() < beta {
				u = rng.Intn(n)
			}
			edges = append(edges, [2]int{v, u})
		}
	}
	return NewGraph(n, edges)
}
