package core

import (
	"fmt"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// Prepared is a multiplication whose supported-model preprocessing — every
// routing decision — has been computed once for a fixed sparsity structure
// and can be reused for any number of value sets (the natural API for
// iterative workloads such as repeated tropical relaxations over a fixed
// graph). Rounds are a function of the structure only, so every Multiply
// costs exactly the same number of rounds.
type Prepared struct {
	inner *algo.Prepared
	// Classes and Band classify the prepared structure (Table 2).
	Classes [3]matrix.Class
	Band    Band
	// D is the sparsity parameter used.
	D int
	// Algorithm is the algorithm as requested at Prepare time ("auto",
	// "theorem42" or "lemma31"; "" normalizes to "auto"). It is part of the
	// content address: Fingerprint keys on the request, not on what "auto"
	// resolved to, so the same field must survive a store round trip.
	Algorithm string
}

// Prepare preprocesses the multiplication for the given supports. Options:
// Ring and D as in Multiply; Algorithm may be "auto", "theorem42" or
// "lemma31" (the trivial/baseline/unsupported algorithms have no prepared
// form).
func Prepare(ahat, bhat, xhat *matrix.Support, opts Options) (*Prepared, error) {
	if ahat.N != bhat.N || ahat.N != xhat.N {
		return nil, fmt.Errorf("core: dimension mismatch %d/%d/%d", ahat.N, bhat.N, xhat.N)
	}
	r := opts.Ring
	if r == nil {
		r = ring.Real{}
	}
	d := ResolveD(opts.D, ahat, bhat, xhat)
	inst := graph.NewInstance(d, ahat, bhat, xhat)
	alg := opts.Algorithm
	if alg == "" {
		alg = "auto"
	}
	p := &Prepared{D: d, Algorithm: alg}
	p.Classes[0], p.Classes[1], p.Classes[2] = inst.Classify()
	p.Band = Classify(p.Classes[0], p.Classes[1], p.Classes[2])

	var inner *algo.Prepared
	var err error
	switch opts.Algorithm {
	case "", "auto":
		if p.Band == Band1Fast {
			inner, err = algo.PrepareTheorem42(r, inst, algo.Theorem42Opts{})
		} else {
			inner, err = algo.PrepareLemma31(r, inst)
		}
	case "theorem42":
		inner, err = algo.PrepareTheorem42(r, inst, algo.Theorem42Opts{})
	case "lemma31":
		inner, err = algo.PrepareLemma31(r, inst)
	default:
		return nil, fmt.Errorf("core: algorithm %q has no prepared form", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	p.inner = inner
	return p, nil
}

// CompiledBytes reports the estimated resident size of the prepared
// multiplication's compiled form (instruction streams, slot tables and one
// executor's arenas). Serving caches use it as the memory cost of a cached
// entry.
func (p *Prepared) CompiledBytes() int64 {
	if p == nil || p.inner == nil {
		return 0
	}
	return p.inner.CompiledBytes()
}

// NodeLoads returns the per-node real-message loads recorded in the
// compiled plans' stats profile: send[v]/recv[v] equal the SendLoad[v]/
// RecvLoad[v] every execution of this structure charges, derived from the
// instruction streams without running anything. Load-aware partitioning
// (internal/dist, docs/DIST.md) bins nodes by these loads. Nil when the
// prepared form has no compiled twin.
func (p *Prepared) NodeLoads() (send, recv []int64) {
	if p == nil || p.inner == nil {
		return nil, nil
	}
	return p.inner.NodeLoads()
}

// Exchanges returns the rounds-versus-exchanges table of the compiled
// plans: per phase (A/anchor … out/deliver, dense/cube distribute and
// aggregate), the network rounds the model charges and the exchanges a
// transport blocks on — the lbm.Transport.Deliver calls of every participant
// of a partitioned run — with the dependency-depth floor beside them. Derived
// from the instruction streams without running anything, and independent of
// the node→participant table. Nil when the prepared form has no compiled
// twin.
func (p *Prepared) Exchanges() *lbm.ExchangeReport {
	if p == nil || p.inner == nil {
		return nil
	}
	return p.inner.Exchanges()
}

// Multiply executes the prepared plans on one value set. The values must
// lie within the prepared structure; positions of the structure without a
// value are ring zeros. Multiply is safe for concurrent use: the prepared
// plans are read-only and every call runs on its own executor.
func (p *Prepared) Multiply(a, b *matrix.Sparse) (*matrix.Sparse, *Report, error) {
	return p.MultiplyOpts(a, b, ExecOpts{})
}

// ExecOpts are per-call execution options for MultiplyOpts and
// MultiplyBatch. The zero value is a plain Multiply.
type ExecOpts struct {
	// Trace records a per-call execution profile into the Report.
	Trace bool
	// Injector subjects the execution to deterministic fault injection
	// (chaos testing, docs/CHAOS.md); nil runs a perfect network.
	Injector lbm.Injector
	// Transport routes every real message of the execution through an
	// explicit communication backend (docs/DIST.md): lbm.Loopback for the
	// in-process seam, a dist.Mesh endpoint for real sockets. nil keeps the
	// original single-process fast path.
	Transport lbm.Transport
}

// machineOpts lowers the per-call options to machine options.
func (o ExecOpts) machineOpts() []lbm.Option {
	var mopts []lbm.Option
	if o.Trace {
		mopts = append(mopts, lbm.WithTrace())
	}
	if o.Injector != nil {
		mopts = append(mopts, lbm.WithInjector(o.Injector))
	}
	if o.Transport != nil {
		mopts = append(mopts, lbm.WithTransport(o.Transport))
	}
	return mopts
}

// MultiplyOpts is Multiply with per-call execution options: a one-lane
// MultiplyBatch (Report.Lanes = 1).
func (p *Prepared) MultiplyOpts(a, b *matrix.Sparse, opts ExecOpts) (*matrix.Sparse, *Report, error) {
	outs, rep, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b}, opts)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], rep, nil
}

// MultiplyBatch executes the prepared plans on k value sets in one batched
// run: every lane shares one instruction-stream walk, so the batch pays
// roughly one multiply's decode and bookkeeping regardless of k. Outputs
// come back lane for lane (outs[l] = as[l]·bs[l]); the Report describes the
// whole batch (Report.Lanes = k). A fault fails the whole batch — lanes
// share every round, so there is no partial success. Safe for concurrent
// use, like Multiply.
func (p *Prepared) MultiplyBatch(as, bs []*matrix.Sparse, opts ExecOpts) ([]*matrix.Sparse, *Report, error) {
	outs, res, err := p.inner.MultiplyBatch(as, bs, opts.machineOpts()...)
	if err != nil {
		return nil, nil, err
	}
	return outs, &Report{Result: *res, Classes: p.Classes, D: p.D, Band: p.Band}, nil
}
