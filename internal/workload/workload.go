// Package workload generates the instance families the experiments run on:
// seeded random supports for every sparsity class of the paper
// (US/RS/CS/BD/AS/GM), the extremal block-diagonal instances that realize
// the d²n triangle worst case, and the skewed instances that separate
// Lemma 3.1 from the naive-routing baseline.
package workload

import (
	"fmt"
	"math/rand"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
)

// US returns a uniformly sparse support: the union of d random
// permutations, so every row and column has at most d entries (duplicates
// collapse, so some rows may have fewer).
func US(n, d int, rng *rand.Rand) *matrix.Support {
	var es [][2]int
	for t := 0; t < d; t++ {
		p := rng.Perm(n)
		for i, j := range p {
			es = append(es, [2]int{i, j})
		}
	}
	return matrix.NewSupport(n, es)
}

// RS returns a row-sparse support: every row gets exactly d entries at
// uniformly random columns; columns are unconstrained (and typically
// unbalanced).
func RS(n, d int, rng *rand.Rand) *matrix.Support {
	var es [][2]int
	for i := 0; i < n; i++ {
		for t := 0; t < d; t++ {
			es = append(es, [2]int{i, rng.Intn(n)})
		}
	}
	return matrix.NewSupport(n, es)
}

// CS returns a column-sparse support (the transpose construction of RS).
func CS(n, d int, rng *rand.Rand) *matrix.Support {
	return RS(n, d, rng).Transpose()
}

// BD returns a support with degeneracy at most d by explicit construction:
// nodes (rows and columns) are inserted in a random order, and each new
// node connects to at most d already-inserted nodes of the other side.
// Eliminating in reverse insertion order then always deletes a node with at
// most d remaining entries.
func BD(n, d int, rng *rand.Rand) *matrix.Support {
	// Node ids: rows 0..n-1, cols n..2n-1.
	order := rng.Perm(2 * n)
	var insertedRows, insertedCols []int
	var es [][2]int
	for _, v := range order {
		if v < n {
			// New row: connect to ≤ d existing columns.
			for t := 0; t < d && len(insertedCols) > 0; t++ {
				j := insertedCols[rng.Intn(len(insertedCols))]
				es = append(es, [2]int{v, j})
			}
			insertedRows = append(insertedRows, v)
		} else {
			j := v - n
			for t := 0; t < d && len(insertedRows) > 0; t++ {
				i := insertedRows[rng.Intn(len(insertedRows))]
				es = append(es, [2]int{i, j})
			}
			insertedCols = append(insertedCols, j)
		}
	}
	return matrix.NewSupport(n, es)
}

// AS returns an average-sparse support with at most d·n entries that is
// genuinely average-sparse where possible: half the budget forms a dense
// b×b block with b > d (degeneracy b, so the support escapes BD(d)), the
// other half is a thin uniform tail. This is the regime where only average
// sparsity holds.
func AS(n, d int, rng *rand.Rand) *matrix.Support {
	budget := d * n
	var es [][2]int
	// Dense block of size b with b² ≤ budget/2.
	b := 1
	for (b+1)*(b+1) <= budget/2 && b+1 <= n {
		b++
	}
	r0, c0 := 0, 0
	if n > b {
		r0, c0 = rng.Intn(n-b), rng.Intn(n-b)
	}
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			es = append(es, [2]int{r0 + i, c0 + j})
		}
	}
	// Thin tail: the remaining budget spread uniformly.
	for len(es) < budget {
		es = append(es, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return matrix.NewSupport(n, es)
}

// GM returns a dense support (all n² positions).
func GM(n, _ int, _ *rand.Rand) *matrix.Support {
	var es [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			es = append(es, [2]int{i, j})
		}
	}
	return matrix.NewSupport(n, es)
}

// ForClass generates a support of the given class at parameter d.
func ForClass(c matrix.Class, n, d int, rng *rand.Rand) *matrix.Support {
	switch c {
	case matrix.US:
		return US(n, d, rng)
	case matrix.RS:
		return RS(n, d, rng)
	case matrix.CS:
		return CS(n, d, rng)
	case matrix.BD:
		return BD(n, d, rng)
	case matrix.AS:
		return AS(n, d, rng)
	default:
		return GM(n, d, rng)
	}
}

// Instance generates a supported instance whose three matrices come from
// the given classes at parameter d, seeded deterministically.
func Instance(ca, cb, cx matrix.Class, n, d int, seed int64) *graph.Instance {
	rng := rand.New(rand.NewSource(seed))
	return graph.NewInstance(d,
		ForClass(ca, n, d, rng), ForClass(cb, n, d, rng), ForClass(cx, n, d, rng))
}

// Blocks returns the extremal uniformly sparse instance: ⌊n/d⌋ disjoint
// complete d×d blocks on the diagonal of all three supports, realizing the
// d²n triangle worst case of Corollary 4.6 with perfectly clusterable
// structure.
func Blocks(n, d int) *graph.Instance {
	var es [][2]int
	for b := 0; b+d <= n; b += d {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				es = append(es, [2]int{b + i, b + j})
			}
		}
	}
	s := matrix.NewSupport(n, es)
	return graph.NewInstance(d, s, s, s)
}

// BlocksShifted is Blocks with the B support's blocks shifted d/2 columns
// to the right (wrapping at n), breaking the perfect alignment: triangles
// only form where a shifted B block overlaps its X̂ block, d·d·⌈d/2⌉ per
// block, exercising partial clustering. (A shift by a whole block would
// leave no overlap and no triangle.) For d = 1 there is no shift and it is
// Blocks.
func BlocksShifted(n, d int) *graph.Instance {
	mk := func(off int) *matrix.Support {
		var es [][2]int
		for b := 0; b+d <= n; b += d {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					es = append(es, [2]int{b + i, (b + j + off) % n})
				}
			}
		}
		return matrix.NewSupport(n, es)
	}
	return graph.NewInstance(d, mk(0), mk(d/2), mk(0))
}

// HotPair returns the skewed instance separating Lemma 3.1 from the naive
// baseline: one B element participates in n triangles whose outputs are
// spread over all computers (A's column 0 and X̂'s column 0 are dense; B
// has the single entry (0,0)).
func HotPair(n int) *graph.Instance {
	var ae, xe [][2]int
	for i := 0; i < n; i++ {
		ae = append(ae, [2]int{i, 0})
		xe = append(xe, [2]int{i, 0})
	}
	return graph.NewInstance(1,
		matrix.NewSupport(n, ae),
		matrix.NewSupport(n, [][2]int{{0, 0}}),
		matrix.NewSupport(n, xe))
}

// Mixed returns an instance that is half extremal blocks and half uniform
// random US noise, so both phases of Theorem 4.2 have work to do.
func Mixed(n, d int, seed int64) *graph.Instance {
	rng := rand.New(rand.NewSource(seed))
	base := Blocks(n, d)
	noise := US(n, d, rng)
	return graph.NewInstance(2*d,
		matrix.Union(base.Ahat, noise),
		matrix.Union(base.Bhat, US(n, d, rng)),
		matrix.Union(base.Xhat, US(n, d, rng)))
}

// PowerLaw returns a skewed instance whose row degrees follow a zipf-like
// power law: the hottest row carries ≈ d·n/H(n) entries while the tail
// thins out as 1/rank, with the diagonal always present so every row
// participates in at least the (i,i,i) triangle. Each matrix draws an
// independent hot-row permutation, so hot A-rows meet hot B-rows only
// through the uniform column draws — the contention profile the
// observability layer is built to expose. Total nnz per matrix ≈ d·n.
func PowerLaw(n, d int, seed int64) *graph.Instance {
	rng := rand.New(rand.NewSource(seed))
	gen := func() *matrix.Support {
		perm := rng.Perm(n)
		// Normalize so Σ_{r=1..n} c/r ≈ the d·n budget.
		h := 0.0
		for r := 1; r <= n; r++ {
			h += 1.0 / float64(r)
		}
		c := float64(d*n) / h
		var es [][2]int
		for rank, i := range perm {
			deg := int(c / float64(rank+1))
			if deg < 1 {
				deg = 1
			}
			if deg > n {
				deg = n
			}
			es = append(es, [2]int{i, i})
			for t := 0; t < deg; t++ {
				es = append(es, [2]int{i, rng.Intn(n)})
			}
		}
		return matrix.NewSupport(n, es)
	}
	return graph.NewInstance(d, gen(), gen(), gen())
}

// Describe summarizes an instance for logs and tables.
func Describe(inst *graph.Instance) string {
	a, b, x := inst.Classify()
	return fmt.Sprintf("n=%d d=%d [%v:%v:%v] nnz=(%d,%d,%d) |T|=%d",
		inst.N, inst.D, a, b, x, inst.Ahat.NNZ, inst.Bhat.NNZ, inst.Xhat.NNZ, inst.CountTriangles())
}
