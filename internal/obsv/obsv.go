// Package obsv is the observability layer of the simulator: a Collector
// interface that the lbm executor feeds per-round events into, and a
// standard Profile implementation that turns those events into a
// phase-annotated round profile with per-node load accounting,
// machine-readable JSON/CSV export, and a human-readable summary.
//
// Every claim this repository reproduces is a round count and its growth
// exponent, so the unit of observability is the *counted round* (a round
// with at least one real cross-node message — rounds of only local copies
// are free in the model and are not counted). A Profile records, per
// counted round, the message volume; per node, the cumulative send and
// receive loads; and, as a tree of phase spans, which builder or algorithm
// phase each round belongs to. The span tree is the one view of where the
// rounds went: Summary renders it as text, Export as lbmm.trace.v1.
//
// Phase naming convention (documented in docs/OBSERVABILITY.md): a label is
// one short path segment such as "phase1", "lemma31", "A/anchor" or
// "routing/hrel"; the full identity of a phase is the "/"-joined path of
// its ancestry in the span tree. Packages use these prefixes:
//
//	algo     phase1, phase2, unsupported/…
//	fewtri   lemma31 with children A/anchor, A/spread, A/forward,
//	         B/…, products, out/route, out/aggregate, out/deliver;
//	         trivial with children fetch, products
//	cluster  cluster/batch
//	dense    dense/cube, dense/strassen with children init, down.L<ℓ>,
//	         leaf, up.L<ℓ>, final
//	routing  routing/hrel, routing/broadcast, routing/convergecast
//	vnet     vnet/compiled
//
// Collectors are invoked from the machine's driving goroutine only (both
// engines are sequential), so implementations need not be thread-safe.
package obsv

// Collector receives execution events. All methods must tolerate being
// called in any order; a nil Collector on the machine is the documented
// zero-overhead fast path, so implementations are never wrapped in
// indirection beyond a single interface call.
type Collector interface {
	// BeginPhase opens a nested phase span at the current round position.
	BeginPhase(label string)
	// EndPhase closes the innermost open span (no-op at the root).
	EndPhase()
	// OnRound reports one counted round: its real cross-node message count
	// (≥ 1) and the number of free local copies that rode along.
	OnRound(messages, localCopies int)
	// OnSend reports one real message of the current round, for per-node
	// load accounting.
	OnSend(from, to int32)
	// Counter adds delta to a named scalar metric on the innermost open
	// span — builder-reported structure (κ, cluster counts, tree depths)
	// that rounds alone cannot show.
	Counter(name string, delta float64)
}
