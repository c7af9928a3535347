// Package core is the public API of the library: supported low-bandwidth
// sparse matrix multiplication with automatic algorithm selection and the
// paper's Table 2 classification engine.
//
// The typical call sequence is
//
//	x, report, err := core.Multiply(a, b, xhat, core.Options{Ring: ring.Counting{}})
//
// which classifies the instance, picks the fastest applicable algorithm
// (Theorem 4.2 for class-1 instances, Lemma 3.1 for class-2, the trivial
// router otherwise), simulates it on n virtual computers at message
// granularity, and returns the masked product together with the measured
// round statistics.
package core

import (
	"fmt"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
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
	// Algorithm forces a specific algorithm: "auto" (default),
	// "theorem42", "lemma31", "trivial", "baseline".
	Algorithm string
	// SkipVerify disables the built-in check against the sequential
	// reference product (useful for large benchmarks).
	SkipVerify bool
	// Trace records a phase-annotated per-round timeline into the Report.
	Trace bool
	// Unsupported drops the supported-model assumption: the computers
	// first disseminate the sparsity structure at run time
	// (Θ(nnz + log n) rounds, reported in the Report), then run the
	// selected algorithm. This is the trivial baseline for the paper's
	// §1.6 open direction.
	Unsupported bool
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
// supported low-bandwidth model and returns it with a Report.
func Multiply(a, b *matrix.Sparse, xhat *matrix.Support, opts Options) (*matrix.Sparse, *Report, error) {
	if a.N != b.N || a.N != xhat.N {
		return nil, nil, fmt.Errorf("core: dimension mismatch %d/%d/%d", a.N, b.N, xhat.N)
	}
	r := opts.Ring
	if r == nil {
		r = ring.Real{}
	}
	ahat := a.Support()
	bhat := b.Support()
	d := ResolveD(opts.D, ahat, bhat, xhat)
	inst := graph.NewInstance(d, ahat, bhat, xhat)
	rep := &Report{D: d}
	rep.Classes[0], rep.Classes[1], rep.Classes[2] = inst.Classify()
	rep.Band = Classify(rep.Classes[0], rep.Classes[1], rep.Classes[2])

	var alg algo.Algorithm
	switch opts.Algorithm {
	case "", "auto":
		alg = autoSelect(rep.Band)
	case "theorem42":
		alg = algo.Theorem42(algo.Theorem42Opts{})
	case "lemma31":
		alg = algo.LemmaOnly
	case "trivial":
		alg = algo.TrivialSparse
	case "baseline":
		alg = algo.BaselineNaiveVirtual(0)
	default:
		return nil, nil, fmt.Errorf("core: unknown algorithm %q", opts.Algorithm)
	}
	if opts.Unsupported {
		alg = algo.Unsupported(alg)
	}

	var mopts []lbm.Option
	if opts.Trace {
		mopts = append(mopts, lbm.WithTrace())
	}
	res, got, err := algo.Solve(r, inst, a, b, alg, mopts...)
	if err != nil {
		return nil, nil, err
	}
	if !opts.SkipVerify {
		if err := algo.Verify(got, a, b, xhat); err != nil {
			return nil, nil, fmt.Errorf("core: internal verification failed: %w", err)
		}
	}
	rep.Result = *res
	return got, rep, nil
}

func autoSelect(b Band) algo.Algorithm {
	switch b {
	case Band1Fast:
		return algo.Theorem42(algo.Theorem42Opts{})
	case Band2Log:
		return algo.LemmaOnly
	default:
		// Hard bands still have correct (if slow) algorithms: Lemma 3.1
		// handles any triangle set; its cost simply reflects the hardness.
		return algo.LemmaOnly
	}
}
