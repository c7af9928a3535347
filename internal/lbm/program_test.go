package lbm

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"lbmm/internal/ring"
)

// programSlots are the slots testProgram's loads and products use.
type programSlots struct {
	a, b, e, x, y SlotRef // loaded: A(0,0)@0, B(0,0)@1, A(1,1)@2; outputs X(0,0)@0, X(1,1)@1
}

// testProgram builds a 3-node program that uses every step kind: a chain of
// two fetches (the second joined to the first), two products, a 2×2 leaf
// block, a subtracting route, a sweep of clears, nested spans, a mark, plain
// and host-owned counters, and a split after the fetches.
func testProgram(t *testing.T) (*Program, *SlotSpace, programSlots) {
	t.Helper()
	sp := NewSlotSpace(3)
	s := programSlots{
		a: sp.Ref(0, AKey(0, 0)), b: sp.Ref(1, BKey(0, 0)), e: sp.Ref(2, AKey(1, 1)),
		x: sp.Ref(0, XKey(0, 0)), y: sp.Ref(1, XKey(1, 1)),
	}
	route := func(sends ...Send) *CompiledPlan {
		t.Helper()
		p := &Plan{}
		p.Append(Round(sends))
		cp, err := CompileInto(sp, p)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	p := NewProgram(3)
	p.BeginPhase("job")
	p.Counter("jobs", 1)
	p.Mark("job:fetch")
	p.BeginPhase("fetch")
	p.Route(route(Send{From: 1, To: 0, Src: BKey(0, 0), Dst: BKey(0, 0)}), "fetch", "test fetch", false)
	p.Route(route(Send{From: 2, To: 0, Src: AKey(1, 1), Dst: AKey(1, 1)}), "fetch", "test fetch", true)
	p.EndPhase()
	p.MarkSplit()
	p.BeginPhase("products")
	p.CounterAt("triangles", 0, 2)
	p.CounterAt("triangles", 1, 5)
	bAt0, eAt0 := sp.Ref(0, BKey(0, 0)), sp.Ref(0, AKey(1, 1))
	p.MulAcc(s.a, bAt0, s.x)
	p.MulAcc(eAt0, bAt0, s.x)
	c := func(u int32) int32 { return sp.Slot(0, Key{Kind: KindUser, I: u}) }
	p.Leaf(0, 2, []int32{s.a.Slot, eAt0.Slot, -1, -1}, []int32{bAt0.Slot, -1, -1, bAt0.Slot}, []int32{c(0), c(1), -1, c(3)})
	p.EndPhase()
	p.Route(route(Send{From: 0, To: 1, Src: Key{Kind: KindUser, I: 0}, Dst: XKey(1, 1), Op: OpSub}), "out", "test out", false)
	p.Clear(bAt0)
	p.Clear(eAt0)
	p.EndPhase()
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	return p, sp, s
}

// programEnv seals a program in an envelope of its own.
func programEnv(t *testing.T, p *Program) []byte {
	t.Helper()
	w := NewWireWriter(testMagic, testVersion)
	w.Program(p)
	return seal(t, w)
}

// readProgram reads the program an envelope holds for an n-node machine.
func readProgram(env []byte, n int) (*Program, error) {
	r, err := ReadWire(bytes.NewReader(env), testMagic, testVersion)
	if err != nil {
		return nil, err
	}
	p := r.Program(n)
	return p, r.Close()
}

// runProgram runs p on a fresh traced executor over the reals with testProgram's
// inputs loaded: a = 2, b = 3, e = 5, and the outputs zeroed.
func runProgram(t *testing.T, p *Program, sp *SlotSpace, s programSlots) (*Exec, int) {
	t.Helper()
	x := NewExec(sp.Sizes(), ring.Real{}, WithTrace())
	for ref, v := range map[SlotRef]float64{s.a: 2, s.b: 3, s.e: 5, s.x: 0, s.y: 0} {
		x.PutSlot(ref, v)
	}
	split, err := x.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return x, split
}

// TestCompiledProgramRoundTrip runs a program of every step kind, and the
// program its envelope decodes to: both compute the same values, count the
// same rounds before the split, record the same profile and report the
// same exchanges and loads, and the decoded one re-encodes to the same
// bytes.
func TestCompiledProgramRoundTrip(t *testing.T) {
	p, sp, s := testProgram(t)
	if !p.NeedsField() {
		t.Fatal("a program with a leaf and a subtraction does not need a field")
	}
	env := programEnv(t, p)
	q, err := readProgram(env, 3)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(programEnv(t, q), env) {
		t.Fatal("decode → encode is not a fixed point")
	}
	if q.MemoryBytes() != p.MemoryBytes() {
		t.Fatalf("decoded program prices at %d bytes, want %d", q.MemoryBytes(), p.MemoryBytes())
	}
	want, wsplit := runProgram(t, p, sp, s)
	got, gsplit := runProgram(t, q, sp, s)
	if wsplit != 2 || gsplit != 2 || want.Rounds() != 3 || got.Rounds() != 3 {
		t.Fatalf("rounds before the split %d and %d, in all %d and %d; want 2 of 3", wsplit, gsplit, want.Rounds(), got.Rounds())
	}
	// x = a·b + e·b; the leaf's C = [a e; 0 0]·[b 0; 0 b] = [6 15; 0 0], and
	// C[0][0] is subtracted into y.
	for _, tc := range []struct {
		ref  SlotRef
		want float64
	}{{s.x, 21}, {s.y, -6}, {SlotRef{Node: 0, Slot: sp.Slot(0, Key{Kind: KindUser, I: 1})}, 15}} {
		for _, x := range []*Exec{want, got} {
			if v, ok := x.GetSlot(tc.ref); !ok || v != tc.want {
				t.Errorf("slot %v holds %v (present %v), want %v", tc.ref, v, ok, tc.want)
			}
		}
	}
	for _, x := range []*Exec{want, got} {
		if x.Present(SlotRef{Node: 0, Slot: sp.Slot(0, BKey(0, 0))}) {
			t.Error("a cleared slot is still present")
		}
	}
	if !reflect.DeepEqual(got.Profile().Export(), want.Profile().Export()) {
		t.Fatal("the decoded program records another profile")
	}
	products := want.Profile().Root().Children[0].Children[1]
	if products.Label != "products" || products.Counters["triangles"] != 7 {
		t.Fatalf("products span %q counts %v triangles, want 7 from two hosts", products.Label, products.Counters["triangles"])
	}
	var wrep, grep ExchangeReport
	p.AddExchanges(&wrep)
	q.AddExchanges(&grep)
	if !reflect.DeepEqual(grep, wrep) || len(wrep.Phases) != 2 || wrep.Phases[0] != (PhaseExchanges{Phase: "fetch", Rounds: 2, Exchanges: 1}) {
		t.Fatalf("exchanges %+v and %+v, want the joined fetches in one exchange", wrep, grep)
	}
	wsend, wrecv := make([]int64, 3), make([]int64, 3)
	gsend, grecv := make([]int64, 3), make([]int64, 3)
	p.AddNodeLoads(wsend, wrecv)
	q.AddNodeLoads(gsend, grecv)
	if !slices.Equal(wsend, []int64{1, 1, 1}) || !slices.Equal(wrecv, []int64{2, 1, 0}) || !slices.Equal(gsend, wsend) || !slices.Equal(grecv, wrecv) {
		t.Fatalf("loads %v/%v and %v/%v", wsend, wrecv, gsend, grecv)
	}
}

// TestCompiledProgramRefusals checks the reader refuses a program cut at
// every byte, and Finish one whose steps do not fit its slabs or machine.
func TestCompiledProgramRefusals(t *testing.T) {
	p, _, _ := testProgram(t)
	env := programEnv(t, p)
	for n := wireHeaderLen; n < len(env); n++ {
		w := NewWireWriter(testMagic, testVersion)
		w.buf = append(w.buf, env[wireHeaderLen:n]...)
		if _, err := readProgram(seal(t, w), 3); err == nil {
			t.Fatalf("a program cut after %d of %d body bytes decodes", n-wireHeaderLen, len(env)-wireHeaderLen)
		}
	}
	if _, err := readProgram(env, 4); err == nil {
		t.Fatal("a 3-node program reads on a 4-node machine")
	}

	step := func(k StepKind) int { return slices.IndexFunc(p.Steps, func(s Step) bool { return s.Kind == k }) }
	for _, tc := range []struct {
		name   string
		damage func(q *Program)
	}{
		{"step kind", func(q *Program) { q.Steps[0].Kind = numStepKinds }},
		{"route index", func(q *Program) { q.Steps[step(StepRoute)].Arg = 7 }},
		{"route order", func(q *Program) { q.Steps[step(StepRoute)].Arg = 1 }},
		{"slab range", func(q *Program) { q.Steps[step(StepMulAcc)].Hi = int32(len(q.Prods) + 1) }},
		{"reversed range", func(q *Program) { q.Steps[step(StepClear)].Lo = q.Steps[step(StepClear)].Hi + 1 }},
		{"label", func(q *Program) { q.Steps[step(StepMark)].Arg = int32(len(q.Labels)) }},
		{"route label", func(q *Program) { q.Routes[0].Fail = -1 }},
		{"leaf host", func(q *Program) { q.Leaves[0].Host = 3 }},
		{"leaf table size", func(q *Program) { q.Leaves[0].Size = 3 }},
		{"product nodes", func(q *Program) { q.Prods[0].B.Node = 1 }},
		{"count host", func(q *Program) { q.Counts[0].Host = 3 }},
		{"clear node", func(q *Program) { q.Clears[0].Node = -1 }},
		{"join after work", func(q *Program) { q.Routes[2].Join = true }},
		{"open span", func(q *Program) { q.Steps = q.Steps[:len(q.Steps)-1] }},
		{"split", func(q *Program) { q.Split = len(q.Steps) + 1 }},
	} {
		q := *p
		q.Steps, q.Routes, q.Prods = slices.Clone(p.Steps), slices.Clone(p.Routes), slices.Clone(p.Prods)
		q.Leaves, q.Counts, q.Clears = slices.Clone(p.Leaves), slices.Clone(p.Counts), slices.Clone(p.Clears)
		tc.damage(&q)
		if _, err := readProgram(programEnv(t, &q), 3); !errors.Is(err, ErrProgram) {
			t.Errorf("%s: err = %v, want ErrProgram", tc.name, err)
		}
	}
}

// TestCompiledProgramDefs checks the def-before-use walk: testProgram reads
// only what its loads and earlier steps define, a route from an unloaded
// slot and a product of a cleared slot are refused.
func TestCompiledProgramDefs(t *testing.T) {
	p, sp, s := testProgram(t)
	sizes := sp.Sizes()
	off := make([]int64, len(sizes)+1)
	for v, sz := range sizes {
		off[v+1] = off[v] + int64(sz)
	}
	loads := func(refs ...SlotRef) []bool {
		defined := make([]bool, off[len(sizes)])
		for _, r := range refs {
			defined[off[r.Node]+int64(r.Slot)] = true
		}
		return defined
	}
	if err := p.CheckDefs(loads(s.a, s.b, s.e, s.x, s.y), off); err != nil {
		t.Fatalf("testProgram: %v", err)
	}
	if err := p.CheckDefs(loads(s.a, s.e, s.x, s.y), off); !errors.Is(err, ErrUseBeforeDef) {
		t.Fatalf("a fetch of an unloaded slot: err = %v, want ErrUseBeforeDef", err)
	}
	q := NewProgram(3)
	q.Clear(s.a)
	q.MulAcc(s.a, s.a, s.x)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := q.CheckDefs(loads(s.a, s.x), off); !errors.Is(err, ErrUseBeforeDef) {
		t.Fatalf("a product of a cleared slot: err = %v, want ErrUseBeforeDef", err)
	}
}
