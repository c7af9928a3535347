package core

import (
	"errors"
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
	// "trivial", "lemma31" or "theorem42"; "" normalizes to "auto"). It is
	// part of the content address: Fingerprint keys on the request, not on
	// what "auto" resolved to, so the same field must survive a store round
	// trip. Resolved names the plan that runs.
	Algorithm string
}

// Prepare preprocesses the multiplication for the given supports. Options:
// Ring and D as in Multiply; Algorithm may be "auto", "trivial", "lemma31"
// or "theorem42" (algo.Planner's experiment-only plans, the naive baseline
// and the SPAA 2022 reconstruction, are not served). An explicit algorithm
// is obeyed. "auto" prices every candidate the structure admits — the
// trivial algorithm and Lemma 3.1 always, Theorem 4.2 in band 1 — by the
// rounds, then the messages, its plans charge, read off its h-relations'
// degrees, Lemma 3.1's counted without planning it, and keeps the cheapest,
// ties going to that order; only the kept one is built, coloured and
// compiled (see cheapestOf). The choice is a function of
// the structure, the ring and d, so the fingerprint of an "auto" request
// stays a content address. The Prepared returned is fully coloured and
// read-only.
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
	switch alg {
	case "auto":
		inner, err = cheapest(r, inst, p.Band == Band1Fast)
	case "trivial":
		inner, err = algo.PrepareTrivial(r, inst)
	case "lemma31":
		inner, err = algo.PrepareLemma31(r, inst)
	case "theorem42":
		inner, err = algo.PrepareTheorem42(r, inst)
	default:
		return nil, fmt.Errorf("core: algorithm %q has no prepared form", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	p.inner = inner
	return p, nil
}

// cheapest is Prepare's "auto": it prices the candidates on one layout and
// one triangle list by the exact (rounds, messages) their plans charge, and
// builds, colours and compiles the first of the cheapest.
func cheapest(r ring.Semiring, inst *graph.Instance, band1 bool) (*algo.Prepared, error) {
	pl := algo.NewPlanner(r, inst)
	candidates := []algo.Candidate{pl.TrivialCandidate(), pl.Lemma31Candidate()}
	if band1 {
		candidates = append(candidates, pl.Theorem42Candidate())
	}
	return cheapestOf(candidates)
}

// cheapestOf prices every candidate, then plans, colours, emits and compiles
// only the first of the cheapest that priced. A routing step's length
// depends only on its h-relation's send and receive degrees: an exact König
// schedule has exactly Δ rounds, so pricing a candidate colours nothing,
// except an h-relation so large that routing.Schedule splits it by Euler, whose
// rounds only its colouring tells. The trivial candidate is priced off its
// plan; Lemma 3.1's job, alone or as Theorem 4.2's phase 2, is priced from
// counts and built only if kept (algo.Candidate). A candidate whose pricing
// fails is skipped, so one that cannot plan a structure does not fail the
// others; only when none prices is there an error, all of theirs joined.
func cheapestOf(candidates []algo.Candidate) (*algo.Prepared, error) {
	best := -1
	var bestRounds, bestMessages int
	var errs []error
	for i, c := range candidates {
		rounds, messages, err := c.Price()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if best < 0 || rounds < bestRounds || rounds == bestRounds && messages < bestMessages {
			best, bestRounds, bestMessages = i, rounds, messages
		}
	}
	if best < 0 {
		return nil, errors.Join(errs...)
	}
	p, err := candidates[best].Plan()
	if err != nil {
		return nil, err
	}
	if err := p.Compile(); err != nil {
		return nil, err
	}
	return p, nil
}

// Resolved names the plan the prepared form runs: Algorithm itself, or the
// candidate "auto" kept ("trivial", "lemma31" or "theorem42"). Report.Name
// carries the same name.
func (p *Prepared) Resolved() string { return p.inner.Name }

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

// NodeLoads returns the per-node real-message loads of the compiled plans:
// send[v]/recv[v] equal the SendLoad[v]/RecvLoad[v] the map oracle
// (algo.Prepared.MultiplyMap) charges on every execution of this structure,
// derived from the instruction streams without running anything. A
// compiled run (Multiply, MultiplyBatch, MultiplyValues) does not count them
// again: its Report's SendLoad and RecvLoad are nil, and these are its
// loads. Load-aware partitioning (internal/dist, docs/DIST.md) bins nodes by
// them. Nil when the prepared form has no compiled twin.
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
