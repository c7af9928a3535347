// Package cluster implements the clustering machinery of the paper's phase
// 1 (§4.2): finding dense clusters in the triangle set (Lemma 4.7),
// partitioning the triangles into clustered batches plus a residual
// (Lemmas 4.9 and 4.11), and executing a clustered batch by running a dense
// multiplication per cluster in parallel (Lemma 2.1).
//
// The existence lemmas are proved by counting arguments; any constructive
// extraction is legitimate because preprocessing is free in the supported
// model (the support is known in advance). We use a greedy extraction that
// repeatedly picks the d most triangle-loaded nodes per side; its achieved
// densities are measured, and the driver falls through to phase 2 when
// extraction stalls — exactly the paper's control flow.
package cluster

import (
	"sort"

	"lbmm/internal/graph"
)

// Assigned couples a cluster with the exact triangle set it must process.
type Assigned struct {
	Cluster graph.Cluster
	Tris    []graph.Triangle
}

// Batch is one clustering 𝒫_i: pairwise-disjoint clusters processed in
// parallel.
type Batch struct {
	Clusters []Assigned
}

// Size returns the number of triangles the batch processes.
func (b *Batch) Size() int {
	total := 0
	for _, a := range b.Clusters {
		total += len(a.Tris)
	}
	return total
}

// topNodes returns up to d node indices with the highest counts, ignoring
// excluded and zero-count nodes, ordered by decreasing count.
func topNodes(counts map[int32]int, excluded map[int32]bool, d int) []int32 {
	type nc struct {
		node int32
		cnt  int
	}
	var all []nc
	for node, cnt := range counts {
		if cnt > 0 && !excluded[node] {
			all = append(all, nc{node, cnt})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].cnt != all[b].cnt {
			return all[a].cnt > all[b].cnt
		}
		return all[a].node < all[b].node
	})
	if len(all) > d {
		all = all[:d]
	}
	out := make([]int32, len(all))
	for i, x := range all {
		out[i] = x.node
	}
	return out
}

// padTo extends nodes with arbitrary unused indices from [0, n) so the side
// has exactly d members (the cluster definition of §2.3 requires equal
// sizes d). Returns nil if that is impossible.
func padTo(nodes []int32, excluded map[int32]bool, n, d int) []int32 {
	have := map[int32]bool{}
	for _, v := range nodes {
		have[v] = true
	}
	for cand := int32(0); len(nodes) < d && int(cand) < n; cand++ {
		if !have[cand] && !excluded[cand] {
			nodes = append(nodes, cand)
			have[cand] = true
		}
	}
	if len(nodes) < d {
		return nil
	}
	return nodes
}

// exclusions tracks per-side node sets already used by clusters of the
// current batch.
type exclusions struct {
	i, j, k map[int32]bool
}

func newExclusions() *exclusions {
	return &exclusions{i: map[int32]bool{}, j: map[int32]bool{}, k: map[int32]bool{}}
}

func (e *exclusions) add(c graph.Cluster) {
	for _, v := range c.I {
		e.i[v] = true
	}
	for _, v := range c.J {
		e.j[v] = true
	}
	for _, v := range c.K {
		e.k[v] = true
	}
}

// FindCluster greedily extracts a dense cluster from tris, avoiding the
// excluded nodes: pick the d most loaded I nodes, then the d most loaded J
// nodes among the surviving triangles, then the d most loaded K nodes. All
// three side orders are tried and the densest result returned, with its
// induced triangle set. Returns ok=false if no cluster with at least one
// induced triangle exists (or n < d leaves no room to pad).
func FindCluster(tris []graph.Triangle, n, d int, excl *exclusions) (Assigned, bool) {
	if excl == nil {
		excl = newExclusions()
	}
	best := Assigned{}
	for order := 0; order < 3; order++ {
		cand, ok := greedyOrder(tris, n, d, excl, order)
		if ok && len(cand.Tris) > len(best.Tris) {
			best = cand
		}
	}
	return best, len(best.Tris) > 0
}

func greedyOrder(tris []graph.Triangle, n, d int, excl *exclusions, order int) (Assigned, bool) {
	live := tris
	sides := [3]struct {
		of   func(graph.Triangle) int32
		excl map[int32]bool
	}{
		{func(t graph.Triangle) int32 { return t.I }, excl.i},
		{func(t graph.Triangle) int32 { return t.J }, excl.j},
		{func(t graph.Triangle) int32 { return t.K }, excl.k},
	}
	seq := [3][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}[order]
	var chosen [3][]int32
	for _, side := range seq {
		counts := map[int32]int{}
		for _, t := range live {
			counts[sides[side].of(t)]++
		}
		nodes := topNodes(counts, sides[side].excl, d)
		nodes = padTo(nodes, sides[side].excl, n, d)
		if nodes == nil {
			return Assigned{}, false
		}
		chosen[side] = nodes
		in := map[int32]bool{}
		for _, v := range nodes {
			in[v] = true
		}
		filtered := live[:0:0]
		for _, t := range live {
			if in[sides[side].of(t)] {
				filtered = append(filtered, t)
			}
		}
		live = filtered
	}
	c := graph.Cluster{I: chosen[0], J: chosen[1], K: chosen[2]}
	return Assigned{Cluster: c, Tris: c.Induced(tris)}, true
}

// ExtractBatch builds one clustering 𝒫 (Lemma 4.9): repeatedly extract a
// cluster disjoint from the batch's earlier clusters, accepting it while
// its induced set has at least minGain triangles. The accepted triangles
// are removed from the working set; the remainder is returned.
func ExtractBatch(tris []graph.Triangle, n, d, minGain int) (Batch, []graph.Triangle) {
	if minGain < 1 {
		minGain = 1
	}
	var batch Batch
	excl := newExclusions()
	remaining := append([]graph.Triangle(nil), tris...)
	for {
		cand, ok := FindCluster(remaining, n, d, excl)
		if !ok || len(cand.Tris) < minGain {
			break
		}
		batch.Clusters = append(batch.Clusters, cand)
		excl.add(cand.Cluster)
		_, outside := cand.Cluster.Partition(remaining)
		remaining = outside
	}
	return batch, remaining
}

// PartitionOpts controls the Lemma 4.11 partition loop.
type PartitionOpts struct {
	// MinGain is the minimum induced-triangle count for a cluster to be
	// worth a dense batch (the d^{3-4ε}/24 of Lemma 4.7; any positive
	// threshold is correct, only the round budget changes).
	MinGain int
	// TargetResidual stops the loop once at most this many triangles
	// remain (the d^{2-ε}·n of Lemma 4.11).
	TargetResidual int
	// MaxBatches caps the number of clusterings L.
	MaxBatches int
}

// Partition applies ExtractBatch repeatedly (Lemma 4.11): it returns the
// clusterings 𝒫_1..𝒫_L and the residual triangle set 𝒯' for phase 2.
func Partition(tris []graph.Triangle, n, d int, opts PartitionOpts) ([]Batch, []graph.Triangle) {
	if opts.MaxBatches <= 0 {
		opts.MaxBatches = 1 << 20
	}
	var batches []Batch
	remaining := tris
	for len(batches) < opts.MaxBatches && len(remaining) > opts.TargetResidual {
		batch, rest := ExtractBatch(remaining, n, d, opts.MinGain)
		if len(batch.Clusters) == 0 {
			break
		}
		batches = append(batches, batch)
		remaining = rest
	}
	return batches, remaining
}
