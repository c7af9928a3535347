// Package core is the public API of the library: supported low-bandwidth
// sparse matrix multiplication with automatic algorithm selection and the
// paper's Table 2 classification engine.
//
// The typical call sequence is
//
//	x, report, err := core.Multiply(a, b, xhat, core.Options{Ring: ring.Counting{}})
//
// which prepares the structure (Prepare), runs the prepared plans once on
// n virtual computers at message granularity, checks the result against the
// sequential reference, and returns the masked product together with the
// measured round statistics and the instance's Table 2 classification.
//
// "auto" means one thing everywhere: Prepare prices every candidate — the
// trivial algorithm, Lemma 3.1 and, in band 1, Theorem 4.2 — from its
// h-relations' degrees and keeps the one whose plans charge the fewest
// rounds, then messages; only that one is coloured and compiled.
package core

import (
	"fmt"

	"lbmm/internal/algo"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// Options configures Multiply.
type Options struct {
	// Ring selects the algebra; defaults to ring.Real{}.
	Ring ring.Semiring
	// D is the sparsity parameter the classes are measured at; 0 infers
	// the smallest d making all three matrices average-sparse
	// (⌈max nnz/n⌉).
	D int
	// Algorithm forces a specific algorithm: "auto" (default, the cheapest
	// plan; see Prepare), "theorem42", "lemma31" or "trivial".
	Algorithm string
}

// Report describes how a product was computed.
type Report struct {
	// Result carries the algorithm-level measurements (rounds, phases,
	// loads).
	algo.Result
	// Classes are the sparsity classes of Â, B̂, X̂ at parameter D.
	Classes [3]matrix.Class
	// D is the sparsity parameter used.
	D int
	// Band is the Table 2 classification of the instance.
	Band Band
}

// Multiply computes the masked product X = A·B restricted to xhat in the
// supported low-bandwidth model and returns it with a Report: Prepare on the
// supports of a and b, one run of the prepared plans, and a check against
// matrix.MulReference, so a caller of Multiply does not depend on the
// compiled engine being right. Unlike a Prepared's runs, whose loads are
// Prepared.NodeLoads, the Report carries the per-node loads in
// Stats.SendLoad and Stats.RecvLoad.
func Multiply(a, b *matrix.Sparse, xhat *matrix.Support, opts Options) (*matrix.Sparse, *Report, error) {
	if a.N != b.N || a.N != xhat.N {
		return nil, nil, fmt.Errorf("core: dimension mismatch %d/%d/%d", a.N, b.N, xhat.N)
	}
	p, err := Prepare(a.Support(), b.Support(), xhat, opts)
	if err != nil {
		return nil, nil, err
	}
	got, rep, err := p.Multiply(a, b)
	if err != nil {
		return nil, nil, err
	}
	if err := algo.Verify(got, a, b, xhat); err != nil {
		return nil, nil, fmt.Errorf("core: internal verification failed: %w", err)
	}
	rep.Stats.SendLoad, rep.Stats.RecvLoad = p.NodeLoads()
	return got, rep, nil
}
