// Package lower reproduces §6, the paper's lower bounds. A lower bound is
// reproduced three ways: (a) the hard instance construction is executable,
// (b) the bound value is computed by the argument of the proof (Boolean
// degree, broadcast fan-in, pigeonhole counting, packing reduction), and
// (c) simulated executions of the repository's algorithms on the hard
// instances are certified to pay at least the bound.
package lower

import (
	"math"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
)

// ---------------------------------------------------------------------------
// §6.1 — broadcasting and aggregation (Lemma 6.1, Theorem 6.15)

// SumInstance is Lemma 6.1's first construction: BD×BD = US with d = 1. All
// nonzeros of A sit in row 0 (the values a_1..a_n), all nonzeros of B in
// column 0 (ones), and only X_00 = Σ_j a_j is of interest. Any algorithm
// computing it aggregates n values into one computer.
func SumInstance(n int) *graph.Instance {
	var ae, be [][2]int
	for j := 0; j < n; j++ {
		ae = append(ae, [2]int{0, j})
		be = append(be, [2]int{j, 0})
	}
	return graph.NewInstance(1,
		matrix.NewSupport(n, ae),
		matrix.NewSupport(n, be),
		matrix.NewSupport(n, [][2]int{{0, 0}}))
}

// BroadcastInstance is Lemma 6.1's second construction: BD×US = BD with
// d = 1. All nonzeros of A sit in column 0 (ones), B has the single nonzero
// b at (0,0), and the whole first column of X (= b everywhere) is of
// interest: computing it broadcasts b to n computers.
func BroadcastInstance(n int) *graph.Instance {
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

// BroadcastFanInBound is Lemma 6.13: with communication and silence an
// informed set can at most triple per round, so broadcasting one bit to n
// computers needs at least ⌈log₃ n⌉ rounds.
func BroadcastFanInBound(n int) int {
	t, reach := 0, 1
	for reach < n {
		reach *= 3
		t++
	}
	return t
}

// DegreeBound is Lemma 6.5: computing a Boolean function f needs
// Ω(log deg f) rounds; concretely deg(𝒢(T)) ≤ 2^T gives T ≥ ⌈log₂ deg f⌉.
func DegreeBound(deg int) int {
	if deg <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(deg))))
}

// SumBound is Corollaries 6.8/6.10: computing the sum (or OR) of n values
// needs Ω(log n) rounds, via deg(OR_n) = n.
func SumBound(n int) int { return DegreeBound(n) }

// ---------------------------------------------------------------------------
// §6.1.1 — Boolean degree machinery (executable for small n)

// BooleanDegree computes the degree of the unique multilinear polynomial
// representing f: {0,1}^n → {0,1}, by Möbius inversion over the subset
// lattice: coefficient α_S = Σ_{T ⊆ S} (−1)^{|S\T|} f(T). Exponential in n;
// intended for the n ≤ 20 verification of deg(OR_n) = n and friends.
func BooleanDegree(f func(mask uint32) bool, n int) int {
	size := 1 << n
	coef := make([]int64, size)
	for m := 0; m < size; m++ {
		if f(uint32(m)) {
			coef[m] = 1
		}
	}
	// In-place Möbius transform: after processing bit b, coef[S] holds the
	// alternating sum over the b-processed sublattice.
	for b := 0; b < n; b++ {
		bit := 1 << b
		for m := 0; m < size; m++ {
			if m&bit != 0 {
				coef[m] -= coef[m^bit]
			}
		}
	}
	deg := 0
	for m := 0; m < size; m++ {
		if coef[m] != 0 {
			if p := popcount(uint32(m)); p > deg {
				deg = p
			}
		}
	}
	return deg
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// ---------------------------------------------------------------------------
// §6.3 — routing hardness (Lemmas 6.21, 6.23, 6.25; Theorem 6.27)

// USGMInstance is Lemma 6.21's construction for US×GM = GM with d = 2: A is
// the cyclic two-diagonal band a_{i,i}, a_{i,(i mod n)+1}; B and X̂ are
// dense.
func USGMInstance(n int) *graph.Instance {
	var ae, be, xe [][2]int
	for i := 0; i < n; i++ {
		ae = append(ae, [2]int{i, i}, [2]int{i, (i + 1) % n})
		for j := 0; j < n; j++ {
			be = append(be, [2]int{i, j})
			xe = append(xe, [2]int{i, j})
		}
	}
	return graph.NewInstance(2,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
}

// RSCSInstance is Lemma 6.23's construction for RS×CS = GM with d = 1: A is
// one dense column, B one dense row, X̂ dense — a rank-one outer product
// whose every output X_ik = a_i·b_k depends on inputs held by two different
// computers.
func RSCSInstance(n int) *graph.Instance {
	var ae, be, xe [][2]int
	for i := 0; i < n; i++ {
		ae = append(ae, [2]int{i, 0})
		be = append(be, [2]int{0, i})
		for j := 0; j < n; j++ {
			xe = append(xe, [2]int{i, j})
		}
	}
	return graph.NewInstance(1,
		matrix.NewSupport(n, ae), matrix.NewSupport(n, be), matrix.NewSupport(n, xe))
}

// SqrtBound is Theorem 6.27's value: the case analysis of Lemmas 6.21/6.23
// forces some computer to receive ⌈√n⌉ values held by other computers, and
// Lemma 6.25's pigeonhole argument turns received values into rounds
// one-for-one.
func SqrtBound(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// ---------------------------------------------------------------------------
// §6.2 — packing reduction (Lemma 6.17, Theorem 6.19)

// PackDense packs a dense m×m product into an AS(1) instance of dimension
// n = m² (Lemma 6.17): the m×m supports sit in the top-left corner of
// m²×m² matrices, so the instance has m² = n nonzeros per matrix — average
// sparsity d = 1.
func PackDense(m int) *graph.Instance {
	n := m * m
	var es [][2]int
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			es = append(es, [2]int{i, j})
		}
	}
	s := matrix.NewSupport(n, es)
	return graph.NewInstance(1, s, s, s)
}

// ReductionRounds is the accounting of Lemma 6.17: an AS algorithm running
// in T(n) rounds on n = m² virtual computers is simulated by m real
// computers in T'(m) = m·T(m²) rounds (each real computer simulates m
// virtual ones, multiplexing their messages round-robin).
func ReductionRounds(m, tOnPacked int) int { return m * tOnPacked }

// ConditionalBound is Theorem 6.19 read forward: if dense MM needs
// Ω(n^λ) rounds then [AS:AS:AS] with d = 1 needs Ω(n^{(λ-1)/2}); with the
// semiring λ = 4/3 this is the paper's conjectured Ω(n^{1/6}).
func ConditionalBound(n int, lambda float64) float64 {
	return math.Pow(float64(n), (lambda-1)/2)
}
