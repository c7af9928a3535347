// Package routing provides the communication-scheduling primitives the
// paper's algorithms are built from: bipartite edge colouring (to realize an
// h-relation — "each computer has at most S outgoing and R incoming
// messages" — in O(S+R) rounds, as in the proof of Lemma 3.1), and
// broadcast / convergecast trees over disjoint groups of computers (the
// spread and aggregation steps of §3.3).
package routing

// This file implements bipartite multigraph edge colouring two ways:
//
//   - EulerColor: recursive Euler splitting. Each level splits the edge set
//     into two halves whose maximum degree is ⌈Δ/2⌉, so the recursion depth
//     is ⌈log₂ Δ⌉ and the number of colours is at most 2^⌈log₂ Δ⌉ < 2Δ.
//     Runs in O(E log Δ) time — this is the default scheduler.
//
//   - KonigColor: exact Δ-edge-colouring by alternating-path augmentation
//     (König's theorem). O(E·(V+Δ)) worst case; used for small instances
//     and as the optimality oracle in tests.

// edge is an edge of a bipartite multigraph between left node L and right
// node R (both 0-based within their side).
type edge struct {
	l, r int32
}

// eulerColor colours edge indices (into edges) with colours such that no two
// edges sharing an endpoint get the same colour. It returns colour classes
// as slices of edge indices.
func eulerColor(edges []edge, nl, nr int) [][]int32 {
	idx := make([]int32, len(edges))
	for i := range idx {
		idx[i] = int32(i)
	}
	return eulerSplit(edges, idx, nl, nr)
}

func eulerSplit(edges []edge, idx []int32, nl, nr int) [][]int32 {
	if len(idx) == 0 {
		return nil
	}
	// Compute max degree of the sub-multigraph induced by idx.
	deg := 0
	dl := make([]int32, nl)
	dr := make([]int32, nr)
	for _, ei := range idx {
		e := edges[ei]
		dl[e.l]++
		dr[e.r]++
		if int(dl[e.l]) > deg {
			deg = int(dl[e.l])
		}
		if int(dr[e.r]) > deg {
			deg = int(dr[e.r])
		}
	}
	if deg <= 1 {
		// Already a matching: one colour class.
		return [][]int32{append([]int32(nil), idx...)}
	}
	half1, half2 := eulerPartition(edges, idx, nl, nr)
	out := eulerSplit(edges, half1, nl, nr)
	out = append(out, eulerSplit(edges, half2, nl, nr)...)
	return out
}

// eulerPartition decomposes the sub-multigraph given by idx into trails and
// assigns edges alternately to two halves, so each node's degree is split
// ⌈d/2⌉ / ⌊d/2⌋ up to the open-trail endpoints. Starting trails at
// odd-degree nodes first guarantees the ⌈Δ/2⌉ bound on both halves.
// Everything is slice-backed CSR over compacted node ids (left l -> l,
// right r -> nl+r) for planning speed.
func eulerPartition(edges []edge, idx []int32, nl, nr int) (half1, half2 []int32) {
	nNodes := nl + nr
	deg := make([]int32, nNodes)
	for _, ei := range idx {
		e := edges[ei]
		deg[e.l]++
		deg[int(e.r)+nl]++
	}
	// CSR offsets.
	start := make([]int32, nNodes+1)
	for v := 0; v < nNodes; v++ {
		start[v+1] = start[v] + deg[v]
	}
	incEdge := make([]int32, 2*len(idx))  // local edge position
	incOther := make([]int32, 2*len(idx)) // other endpoint node id
	fill := make([]int32, nNodes)
	copy(fill, start[:nNodes])
	for pos, ei := range idx {
		e := edges[ei]
		u := int32(e.l)
		v := e.r + int32(nl)
		incEdge[fill[u]] = int32(pos)
		incOther[fill[u]] = v
		fill[u]++
		incEdge[fill[v]] = int32(pos)
		incOther[fill[v]] = u
		fill[v]++
	}
	used := make([]bool, len(idx))
	cursor := make([]int32, nNodes)
	copy(cursor, start[:nNodes])

	half1 = make([]int32, 0, (len(idx)+1)/2)
	half2 = make([]int32, 0, len(idx)/2)
	walk := func(startNode int32) {
		u := startNode
		parity := 0
		for {
			c := cursor[u]
			for c < start[u+1] && used[incEdge[c]] {
				c++
			}
			cursor[u] = c
			if c >= start[u+1] {
				return
			}
			pos := incEdge[c]
			used[pos] = true
			cursor[u] = c + 1
			if parity == 0 {
				half1 = append(half1, idx[pos])
			} else {
				half2 = append(half2, idx[pos])
			}
			parity ^= 1
			u = incOther[c]
		}
	}

	// Odd-degree nodes first (open trails), then leftover circuits. Only
	// nodes incident to this sub-multigraph matter (deg > 0).
	for v := int32(0); int(v) < nNodes; v++ {
		if deg[v]%2 == 1 {
			walk(v)
		}
	}
	for v := int32(0); int(v) < nNodes; v++ {
		if deg[v] > 0 {
			walk(v)
		}
	}
	return half1, half2
}

// konigColor computes an exact Δ-edge-colouring of the bipartite multigraph
// via alternating-path augmentation; delta is its largest degree.
func konigColor(edges []edge, nl, nr, delta int) [][]int32 {
	if delta == 0 {
		return nil
	}
	// atL[u*delta+c] = edge index using colour c at left node u, -1 if free;
	// atR likewise at right nodes.
	slots := filled((nl+nr)*delta, -1)
	atL, atR := slots[:nl*delta], slots[nl*delta:]
	colourAtL := func(u int32) []int32 { return atL[int(u)*delta:][:delta] }
	colourAtR := func(v int32) []int32 { return atR[int(v)*delta:][:delta] }
	colourOf := filled(len(edges), -1)

	freeAt := func(slots []int32) int32 {
		for c, e := range slots {
			if e == -1 {
				return int32(c)
			}
		}
		return -1
	}
	assign := func(ei, c int32) {
		e := edges[ei]
		colourAtL(e.l)[c] = ei
		colourAtR(e.r)[c] = ei
		colourOf[ei] = c
	}

	var path []int32
	for ei := range edges {
		e := edges[ei]
		cl := freeAt(colourAtL(e.l))
		cr := freeAt(colourAtR(e.r))
		if cl == cr {
			assign(int32(ei), cl)
			continue
		}
		// Collect the alternating (cl, cr)-path starting at the right node
		// (edges coloured cl, cr, cl, ... on the original colouring), then
		// swap the two colours along it. This frees cl at e.r while keeping
		// it free at e.l (the path cannot reach e.l: it would have to arrive
		// by an edge coloured cl, but cl is free at e.l).
		path = path[:0]
		u, vSide := e.r, true // current node; vSide=true means right side
		cur, oth := cl, cr
		for {
			var slots []int32
			if vSide {
				slots = colourAtR(u)
			} else {
				slots = colourAtL(u)
			}
			next := slots[cur]
			if next == -1 {
				break
			}
			path = append(path, next)
			ne := edges[next]
			if vSide {
				u, vSide = ne.l, false
			} else {
				u, vSide = ne.r, true
			}
			cur, oth = oth, cur
		}
		// Two-pass flip: clear every path edge's old slot first, then set the
		// new slots. Interleaving the two would clobber slots shared by
		// consecutive path edges mid-flip.
		for _, pe := range path {
			ne := edges[pe]
			c := colourOf[pe]
			colourAtL(ne.l)[c] = -1
			colourAtR(ne.r)[c] = -1
		}
		for _, pe := range path {
			nc := cl
			if colourOf[pe] == cl {
				nc = cr
			}
			assign(pe, nc)
		}
		assign(int32(ei), cl)
	}

	// The classes are windows of one slab, each listing its edges in index
	// order. A vertex of degree Δ meets every colour, so none is empty.
	count := make([]int32, delta+1)
	for _, c := range colourOf {
		count[c+1]++
	}
	for c := 1; c <= delta; c++ {
		count[c] += count[c-1]
	}
	slab := make([]int32, len(edges))
	classes := make([][]int32, delta)
	for c := range classes {
		classes[c] = slab[count[c]:count[c]:count[c+1]]
	}
	for ei, c := range colourOf {
		classes[c] = append(classes[c], int32(ei))
	}
	return classes
}

func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}
