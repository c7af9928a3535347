package lbm

import (
	"errors"
	"testing"

	"lbmm/internal/ring"
)

// scriptInjector is a hand-written injector for exact-position tests: it
// strikes the message at (round, ord) with kind, and straggles the listed
// nodes at straggleRound.
type scriptInjector struct {
	round, ord    int
	kind          FaultKind
	straggleRound int
	stragglers    map[NodeID]bool
}

func (s *scriptInjector) Decide(round, ord int, from, to NodeID) FaultKind {
	if round == s.round && ord == s.ord {
		return s.kind
	}
	return FaultNone
}

func (s *scriptInjector) Straggles(round int, node NodeID) bool {
	return round == s.straggleRound && s.stragglers[node]
}

// faultTestPlan builds a 4-node, 3-network-round plan with a local-copy
// round in the middle (which must NOT advance the network round counter)
// and two real messages per real round.
func faultTestPlan() *Plan {
	p := &Plan{}
	p.Append(Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: TKey(0, 0, 0), Op: OpSet},
		{From: 2, To: 3, Src: AKey(2, 0), Dst: TKey(2, 0, 0), Op: OpSet},
	})
	p.Append(Round{ // free local copies only: not a network round
		{From: 1, To: 1, Src: TKey(0, 0, 0), Dst: TKey(0, 0, 1), Op: OpSet},
	})
	p.Append(Round{
		{From: 1, To: 0, Src: TKey(0, 0, 0), Dst: TKey(9, 9, 0), Op: OpSet},
		{From: 3, To: 2, Src: TKey(2, 0, 0), Dst: TKey(9, 9, 0), Op: OpAcc},
	})
	p.Append(Round{
		{From: 0, To: 2, Src: TKey(9, 9, 0), Dst: TKey(8, 8, 0), Op: OpSet},
	})
	return p
}

func loadFaultTestInputs(put func(node NodeID, k Key, v ring.Value)) {
	put(0, AKey(0, 0), 1)
	put(2, AKey(2, 0), 2)
}

// runFaultPlanMap executes the test plan on the map engine under inj.
func runFaultPlanMap(inj Injector) error {
	var opts []Option
	if inj != nil {
		opts = append(opts, WithInjector(inj))
	}
	m := New(4, ring.Counting{}, opts...)
	loadFaultTestInputs(m.Put)
	return m.Run(faultTestPlan())
}

// runFaultPlanCompiled executes the same plan on the compiled engine.
func runFaultPlanCompiled(inj Injector) error {
	sp := NewSlotSpace(4, 0)
	cp, err := CompileInto(sp, faultTestPlan())
	if err != nil {
		return err
	}
	var opts []Option
	if inj != nil {
		opts = append(opts, WithInjector(inj))
	}
	x := NewExec(sp.Sizes(), ring.Counting{}, opts...)
	loadFaultTestInputs(func(node NodeID, k Key, v ring.Value) {
		if slot, ok := sp.Lookup(node, k); ok {
			x.PutSlot(SlotRef{Node: node, Slot: slot}, v)
		}
	})
	return x.Run(cp)
}

// TestFaultDetectionParity drives every fault kind through both engines at
// every (network round, ordinal) position of the test plan and requires
// byte-identical typed detections: same kind, same round, same node.
func TestFaultDetectionParity(t *testing.T) {
	kinds := []FaultKind{FaultDrop, FaultDuplicate, FaultCorrupt, FaultDelay}
	// (round, ord) positions with a real message; round 1 of the plan is
	// local-only, so network rounds are 0, 1, 2 with ords {0,1},{0,1},{0}.
	positions := []struct{ round, ord int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}}
	for _, k := range kinds {
		for _, pos := range positions {
			inj := &scriptInjector{round: pos.round, ord: pos.ord, kind: k, straggleRound: -1}
			errMap := runFaultPlanMap(inj)
			errComp := runFaultPlanCompiled(inj)
			fm, okm := AsFault(errMap)
			fc, okc := AsFault(errComp)
			if !okm || !okc {
				t.Fatalf("%v@r%d#%d: map err = %v, compiled err = %v (want typed faults)",
					k, pos.round, pos.ord, errMap, errComp)
			}
			if *fm != *fc {
				t.Errorf("%v@r%d#%d: engines disagree: map %+v, compiled %+v", k, pos.round, pos.ord, fm, fc)
			}
			if fm.Kind != k || fm.Round != pos.round {
				t.Errorf("%v@r%d#%d: detected %+v at the wrong position", k, pos.round, pos.ord, fm)
			}
			if fm.Node != fm.To {
				t.Errorf("%v@r%d#%d: fault attributed to node %d, want receiver %d", k, pos.round, pos.ord, fm.Node, fm.To)
			}
		}
	}
}

// TestFaultStragglerAttribution checks straggler masks: the fault names the
// straggling sender, not its receiver, and both engines agree.
func TestFaultStragglerAttribution(t *testing.T) {
	inj := &scriptInjector{round: -1, straggleRound: 1, stragglers: map[NodeID]bool{3: true}}
	errMap := runFaultPlanMap(inj)
	errComp := runFaultPlanCompiled(inj)
	fm, okm := AsFault(errMap)
	fc, okc := AsFault(errComp)
	if !okm || !okc {
		t.Fatalf("map err = %v, compiled err = %v (want typed faults)", errMap, errComp)
	}
	if *fm != *fc {
		t.Errorf("engines disagree: map %+v, compiled %+v", fm, fc)
	}
	if fm.Kind != FaultStraggle || fm.Round != 1 || fm.Node != 3 {
		t.Errorf("straggler fault = %+v, want straggle at network round 1 by node 3", fm)
	}
}

// TestFaultNetRoundSkipsLocalRounds pins the network round numbering: the
// plan's local-copy-only round must not consume a round index, so a fault
// scheduled for network round 2 strikes the plan's *fourth* round.
func TestFaultNetRoundSkipsLocalRounds(t *testing.T) {
	inj := &scriptInjector{round: 2, ord: 0, kind: FaultDrop, straggleRound: -1}
	err := runFaultPlanMap(inj)
	f, ok := AsFault(err)
	if !ok {
		t.Fatalf("err = %v, want a typed fault", err)
	}
	if f.From != 0 || f.To != 2 {
		t.Errorf("network round 2 fault struck message %d→%d, want 0→2 (the fourth plan round)", f.From, f.To)
	}
}

// TestFaultCleanRunUnaffected checks the seam is inert when the injector
// never strikes, and absent entirely when no injector is attached.
func TestFaultCleanRunUnaffected(t *testing.T) {
	quiet := &scriptInjector{round: -1, straggleRound: -1}
	for name, run := range map[string]func(Injector) error{
		"map": runFaultPlanMap, "compiled": runFaultPlanCompiled,
	} {
		if err := run(quiet); err != nil {
			t.Errorf("%s with quiet injector: %v", name, err)
		}
		if err := run(nil); err != nil {
			t.Errorf("%s without injector: %v", name, err)
		}
	}
}

// TestFaultAbortsBeforeStateChange checks that a faulted round mutates
// neither stores nor statistics: the barrier either completes or the run
// stops where it stood.
func TestFaultAbortsBeforeStateChange(t *testing.T) {
	m := New(4, ring.Counting{}, WithInjector(&scriptInjector{round: 1, ord: 0, kind: FaultDrop, straggleRound: -1}))
	loadFaultTestInputs(m.Put)
	err := m.Run(faultTestPlan())
	if !IsFault(err) {
		t.Fatalf("err = %v, want a typed fault", err)
	}
	st := m.Stats()
	if st.Rounds != 1 || st.Messages != 2 {
		t.Errorf("stats after mid-plan fault = %d rounds / %d messages, want 1 / 2 (only the clean round counted)",
			st.Rounds, st.Messages)
	}
	if _, ok := m.Get(0, TKey(9, 9, 0)); ok {
		t.Error("faulted round delivered its payload")
	}
}

// TestFaultErrorsUnwrap checks the error chain survives the executors'
// round wrapping so supervisors can errors.As their way to the fault.
func TestFaultErrorsUnwrap(t *testing.T) {
	err := runFaultPlanMap(&scriptInjector{round: 0, ord: 0, kind: FaultCorrupt, straggleRound: -1})
	if !IsFault(err) {
		t.Fatalf("IsFault = false for %v", err)
	}
	var f *ErrFault
	if !errors.As(err, &f) || f.Kind != FaultCorrupt {
		t.Fatalf("errors.As failed on %v", err)
	}
	if IsFault(nil) {
		t.Error("IsFault matched nil")
	}
	if IsFault(errors.New("plain")) {
		t.Error("IsFault matched a plain error")
	}
}
