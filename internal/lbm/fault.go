package lbm

import (
	"errors"
	"fmt"
)

// This file is the fault-injection seam of the execution spine. The model
// assumes a perfect synchronous network: every round each computer sends at
// most one message and receives at most one message, and every sent message
// arrives before the round barrier (§2). A production deployment cannot
// assume that, so both engines accept an Injector — a deterministic oracle
// deciding which messages a fault strikes — and turn every injected fault
// into the detection a real synchronous runtime would perform at the round
// barrier: a dropped, delayed or straggling message is a missing delivery,
// a duplicated message violates the one-receive invariant, a corrupted
// payload fails its checksum. Detection surfaces as a typed *ErrFault
// carrying the network round and the node that observed the violation, so a
// supervisor (the serving layer's retry policy, the chaos
// differential harness) can reason about the failure instead of pattern
// matching error strings.
//
// Rounds are numbered by a per-run network round counter: every executed
// round that carries at least one real (cross-node) message advances it,
// rounds of only free local copies do not. The counter spans all plans of a
// pipeline, so the map and compiled engines — which execute the identical
// round sequence for a prepared structure — agree on the index of every
// message and hence, under a shared Injector, fail identically. The chaos
// harness (internal/chaos) holds them to exactly that.

// FaultKind classifies an injected network fault.
type FaultKind uint8

const (
	// FaultNone is the absence of a fault (an Injector's clean verdict).
	FaultNone FaultKind = iota
	// FaultDrop loses a message: the receiver detects a missing delivery at
	// the round barrier.
	FaultDrop
	// FaultDuplicate delivers a message twice: the second copy violates the
	// receiver's one-receive-per-round invariant.
	FaultDuplicate
	// FaultCorrupt flips payload bits in flight: the receiver's checksum
	// rejects the message, which is then as good as lost.
	FaultCorrupt
	// FaultDelay holds a message past the round barrier: the receiver
	// detects a missing delivery in the round it was due.
	FaultDelay
	// FaultStraggle marks a whole computer late for a round: none of its
	// messages make the barrier. Attribution names the straggler itself.
	FaultStraggle
)

// String names the kind the way docs/CHAOS.md does.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultCorrupt:
		return "corrupt"
	case FaultDelay:
		return "delay"
	case FaultStraggle:
		return "straggle"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// ErrFault is the typed error surfaced when an executor detects an injected
// network fault. Both engines produce identical ErrFault values for the
// same injector on the same prepared structure.
type ErrFault struct {
	// Kind says what struck the message.
	Kind FaultKind
	// Round is the global network round index (0-based, counted across all
	// plans of the run; rounds without real messages don't count).
	Round int
	// Node is the computer that detected the violation: the receiver for
	// drop/duplicate/corrupt/delay, the straggler itself for straggle.
	Node NodeID
	// From, To are the endpoints of the struck message.
	From, To NodeID
}

// Error describes the detected violation in round/node terms.
func (e *ErrFault) Error() string {
	switch e.Kind {
	case FaultDuplicate:
		return fmt.Sprintf("lbm: fault: node %d received twice in network round %d (duplicated message %d→%d)",
			e.Node, e.Round, e.From, e.To)
	case FaultCorrupt:
		return fmt.Sprintf("lbm: fault: node %d rejected a corrupt payload in network round %d (message %d→%d)",
			e.Node, e.Round, e.From, e.To)
	case FaultStraggle:
		return fmt.Sprintf("lbm: fault: node %d straggled past the round %d barrier (message %d→%d undelivered)",
			e.Node, e.Round, e.From, e.To)
	default: // drop, delay: a missing delivery at the barrier
		return fmt.Sprintf("lbm: fault: node %d missing a delivery in network round %d (%s of message %d→%d)",
			e.Node, e.Round, e.Kind, e.From, e.To)
	}
}

// AsFault unwraps an *ErrFault from an error chain.
func AsFault(err error) (*ErrFault, bool) {
	var e *ErrFault
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// IsFault reports whether the error chain carries an injected-fault
// detection.
func IsFault(err error) bool {
	_, ok := AsFault(err)
	return ok
}

// Injector decides, deterministically, which faults strike which messages.
// Implementations must be pure functions of their arguments (plus their own
// immutable configuration): both engines consult the injector for the same
// (round, ordinal) sequence and must reach the same verdicts, and a single
// injector may be shared by concurrent executions.
type Injector interface {
	// Decide returns the fault striking the ord-th real message of global
	// network round `round` (messages ordered as planned), or FaultNone.
	Decide(round, ord int, from, to NodeID) FaultKind
	// Straggles reports whether node misses the barrier of the given round
	// entirely (checked for every sender of the round before per-message
	// faults).
	Straggles(round int, node NodeID) bool
}

// WithInjector attaches a fault injector to a machine or executor. A nil
// injector (the default) is the zero-overhead path: the fault seam is a
// single nil check per round.
func WithInjector(inj Injector) Option {
	return func(s *settings) { s.injector = inj }
}

// injectRound is the shared detection walk: it visits the round's real
// messages in plan order, advances the network round counter, and returns
// the first detected fault. next reports each real message; it is called
// until it returns done=true.
func injectRound(inj Injector, netRound *int, next func() (from, to NodeID, done bool)) error {
	t := *netRound
	ord := 0
	for {
		from, to, done := next()
		if done {
			break
		}
		if inj.Straggles(t, from) {
			return &ErrFault{Kind: FaultStraggle, Round: t, Node: from, From: from, To: to}
		}
		if k := inj.Decide(t, ord, from, to); k != FaultNone {
			return &ErrFault{Kind: k, Round: t, Node: to, From: from, To: to}
		}
		ord++
	}
	if ord > 0 {
		*netRound = t + 1
	}
	return nil
}

// injectRound consults the machine's injector for the upcoming round and
// reports the first detected fault before any state changes — the round
// barrier either completes cleanly or the run aborts with provenance.
func (m *Machine) injectRound(r Round) error {
	i := 0
	return injectRound(m.injector, &m.netRound, func() (NodeID, NodeID, bool) {
		for i < len(r) {
			s := r[i]
			i++
			if s.From != s.To {
				return s.From, s.To, false
			}
		}
		return 0, 0, true
	})
}

// injectRound is the compiled engine's twin of Machine.injectRound over the
// SoA instruction range [lo, hi) of one round.
func (x *Exec) injectRound(cp *CompiledPlan, lo, hi int) error {
	i := lo
	return injectRound(x.injector, &x.netRound, func() (NodeID, NodeID, bool) {
		for i < hi {
			from, to := cp.From[i], cp.To[i]
			i++
			if from != to {
				return NodeID(from), NodeID(to), false
			}
		}
		return 0, 0, true
	})
}
