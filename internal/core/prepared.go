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
	switch opts.Engine {
	case "", string(algo.EngineCompiled):
		inner.Engine = algo.EngineCompiled
	case string(algo.EngineMap):
		inner.Engine = algo.EngineMap
	default:
		return nil, fmt.Errorf("core: unknown engine %q (want %q or %q)", opts.Engine, algo.EngineCompiled, algo.EngineMap)
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

// Multiply executes the prepared plans on one value set. The values must
// lie within the prepared structure; positions of the structure without a
// value are ring zeros. Multiply is safe for concurrent use: the prepared
// plans are read-only and every call runs on a fresh machine.
func (p *Prepared) Multiply(a, b *matrix.Sparse) (*matrix.Sparse, *Report, error) {
	return p.MultiplyTraced(a, b, false)
}

// MultiplyTraced is Multiply with an optional per-call execution profile
// (Report.Profile / Report.Timeline), recorded without mutating the shared
// prepared state — the serving layer uses it for per-request traces.
func (p *Prepared) MultiplyTraced(a, b *matrix.Sparse, trace bool) (*matrix.Sparse, *Report, error) {
	return p.MultiplyOpts(a, b, ExecOpts{Trace: trace})
}

// ExecOpts are per-call execution options for MultiplyOpts. The zero value
// is a plain Multiply on the prepared engine.
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

// machineOpts lowers the per-call options to the machine options both
// Multiply forms pass down.
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

// MultiplyOpts executes the prepared plans on one value set with per-call
// execution options. Like Multiply it is safe for concurrent use.
func (p *Prepared) MultiplyOpts(a, b *matrix.Sparse, opts ExecOpts) (*matrix.Sparse, *Report, error) {
	x, res, err := p.inner.MultiplyWith(a, b, opts.machineOpts()...)
	if err != nil {
		return nil, nil, err
	}
	return x, &Report{Result: *res, Classes: p.Classes, D: p.D, Band: p.Band}, nil
}

// MultiplyBatch executes the prepared plans on k value sets in one batched
// run: on the compiled engine every lane shares one instruction-stream
// walk, so the batch pays roughly one multiply's decode and bookkeeping
// regardless of k. Outputs come back lane for lane (outs[l] = as[l]·bs[l]);
// the Report describes the whole batch (Report.Lanes = k). A fault fails
// the whole batch — lanes share every round, so there is no partial
// success. Safe for concurrent use, like Multiply.
func (p *Prepared) MultiplyBatch(as, bs []*matrix.Sparse, opts ExecOpts) ([]*matrix.Sparse, *Report, error) {
	outs, res, err := p.inner.MultiplyBatchWith(as, bs, opts.machineOpts()...)
	if err != nil {
		return nil, nil, err
	}
	return outs, &Report{Result: *res, Classes: p.Classes, D: p.D, Band: p.Band}, nil
}
