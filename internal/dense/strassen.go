package dense

// This file implements a message-level recursive distributed Strassen
// multiplication for fields: the executable stand-in for the congested
// clique O(n^{1-2/ω}) field algorithm of Censor-Hillel et al. [3] that the
// paper invokes (via simulation, O(n^{2-2/ω}) low-bandwidth rounds) in
// Lemma 2.1 and Table 1. With Strassen's ω̃ = log₂ 7 the communication
// volume per computer — and hence the round count — scales as
// O(m^{2-2/ω̃}) = O(m^{1.2876}) for an m×m product on ~m computers.
//
// Scheme. Pad the problem to D = 2^⌈log₂ m⌉. At level ℓ there are 7^ℓ
// subproblems of size D/2^ℓ, each owned by a contiguous group of processors
// (elements round-robin within the group). A downward phase per level
// computes the 7 Strassen input combinations of every subproblem with
// signed accumulation messages (OpAcc/OpSub); at the leaf level each
// subproblem sits on a single processor and is multiplied locally (free
// local computation); an upward phase combines the children's products into
// the parent's C quadrants; the final phase accumulates the level-0 product
// into the X owners, restricted to the output mask.
//
// Sparsity of inputs is honoured at plan time: element presence is tracked
// per level (an absent element is an exact zero and sends no message), so
// the routine runs unchanged on the pair-masked sub-instances of the
// clustered phase of Theorem 4.2's field variant.

import (
	"fmt"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/routing"
	"lbmm/internal/vnet"
)

// Strassen coefficient tables. Quadrants: 0=(1,1), 1=(1,2), 2=(2,1), 3=(2,2).
type term struct {
	idx  int  // quadrant (down phase) or child (up phase)
	sign int8 // +1 or -1
}

// bilinear is a 2×2 block bilinear multiplication algorithm with 7
// products: quadrant combinations for the two inputs and the product
// recombination for the output quadrants.
type bilinear struct {
	name string
	a, b [7][]term
	c    [4][]term
}

var (
	// strassenA[c] lists the A-quadrant terms of child product M_{c+1}.
	strassenA = [7][]term{
		{{0, 1}, {3, 1}},  // M1 = (A11+A22)(B11+B22)
		{{2, 1}, {3, 1}},  // M2 = (A21+A22) B11
		{{0, 1}},          // M3 = A11 (B12-B22)
		{{3, 1}},          // M4 = A22 (B21-B11)
		{{0, 1}, {1, 1}},  // M5 = (A11+A12) B22
		{{2, 1}, {0, -1}}, // M6 = (A21-A11)(B11+B12)
		{{1, 1}, {3, -1}}, // M7 = (A12-A22)(B21+B22)
	}
	strassenB = [7][]term{
		{{0, 1}, {3, 1}},
		{{0, 1}},
		{{1, 1}, {3, -1}},
		{{2, 1}, {0, -1}},
		{{3, 1}},
		{{0, 1}, {1, 1}},
		{{2, 1}, {3, 1}},
	}
	// strassenC[q] lists the child terms of C quadrant q.
	strassenC = [4][]term{
		{{0, 1}, {3, 1}, {4, -1}, {6, 1}}, // C11 = M1+M4-M5+M7
		{{2, 1}, {4, 1}},                  // C12 = M3+M5
		{{1, 1}, {3, 1}},                  // C21 = M2+M4
		{{0, 1}, {1, -1}, {2, 1}, {5, 1}}, // C22 = M1-M2+M3+M6
	}

	// Classic is Strassen's original 1969 scheme.
	Classic = &bilinear{name: "strassen", a: strassenA, b: strassenB, c: strassenC}

	// Winograd is the Strassen–Winograd variant (flattened to bilinear
	// form): P1=A11·B11, P2=A12·B21, P3=(A11+A12−A21−A22)·B22,
	// P4=A22·(B11−B12−B21+B22), P5=(A21+A22)·(B12−B11),
	// P6=(A21+A22−A11)·(B11−B12+B22), P7=(A11−A21)·(B22−B12);
	// C11=P1+P2, C12=P1+P3+P5+P6, C21=P1−P4+P6+P7, C22=P1+P5+P6+P7.
	Winograd = &bilinear{
		name: "winograd",
		a: [7][]term{
			{{0, 1}},                           // P1: A11
			{{1, 1}},                           // P2: A12
			{{0, 1}, {1, 1}, {2, -1}, {3, -1}}, // P3
			{{3, 1}},                           // P4: A22
			{{2, 1}, {3, 1}},                   // P5
			{{2, 1}, {3, 1}, {0, -1}},          // P6
			{{0, 1}, {2, -1}},                  // P7
		},
		b: [7][]term{
			{{0, 1}},                           // P1: B11
			{{2, 1}},                           // P2: B21
			{{3, 1}},                           // P3: B22
			{{0, 1}, {1, -1}, {2, -1}, {3, 1}}, // P4
			{{1, 1}, {0, -1}},                  // P5
			{{0, 1}, {1, -1}, {3, 1}},          // P6
			{{3, 1}, {1, -1}},                  // P7
		},
		c: [4][]term{
			{{0, 1}, {1, 1}},                  // C11 = P1+P2
			{{0, 1}, {2, 1}, {4, 1}, {5, 1}},  // C12 = P1+P3+P5+P6
			{{0, 1}, {3, -1}, {5, 1}, {6, 1}}, // C21 = P1-P4+P6+P7
			{{0, 1}, {4, 1}, {5, 1}, {6, 1}},  // C22 = P1+P5+P6+P7
		},
	}
)

// StrassenSpec describes one distributed Strassen batch over a field.
type StrassenSpec struct {
	// N is the global matrix dimension (for role vnode addressing).
	N int
	// Procs are the virtual processors available to the batch.
	Procs []int32
	// I, J, K are the (equal-length) global index sets of the batch.
	I, J, K []int32
	// SA, SB restrict which input positions may be nonzero (global
	// indices); nil means all of I×J (resp. J×K) may be nonzero.
	SA, SB *matrix.Support
	// SX restricts which outputs are accumulated into X owners; nil means
	// all of I×K.
	SX *matrix.Support
	// Tag namespaces this batch's scratch keys so that concurrently-run
	// batches whose processors share hosts cannot collide. Must be unique
	// per concurrent batch and < 2^15.
	Tag int32
	// Layout locates the inputs and outputs, as in CubeSpec.
	Layout *lbm.Layout
	// Variant selects the bilinear scheme (nil = Classic Strassen;
	// Winograd is the alternative with fewer additions in sequential
	// implementations — here it validates the table-driven design).
	Variant *bilinear
}

// VariantWinograd returns the Strassen–Winograd coefficient tables.
func VariantWinograd() *bilinear { return Winograd }

// StrassenJob is a planned batch: the virtual messages of each
// communication phase, which a batch schedules together
// (PlanStrassenProgram), and the leaf products between them.
type StrassenJob struct {
	down  [][]lbm.Send // one per level transition, A and B combined
	up    [][]lbm.Send // one per level transition (reverse order: deepest first)
	final []lbm.Send   // C(0) -> X owners
	init  []lbm.Send   // A,B -> level-0 element owners
	leafs []leafTask
	// cleanup: every scratch element key created, to delete after the run.
	cleanup []hostKeyPair
}

type leafTask struct {
	host lbm.NodeID
	s    int32 // subproblem id at leaf level
	size int32
	lvl  int
	// presA/presB/presC are flattened size×size presence bitmaps.
	presA, presB, presC []bool
}

// Scratch key kinds: each level ℓ uses three kinds for its A, B, C
// elements. Key{kind, u, v, s} addresses element (u,v) of subproblem s.
func kindA(lvl int) lbm.Kind { return lbm.KindUser + lbm.Kind(3*lvl) }
func kindB(lvl int) lbm.Kind { return lbm.KindUser + lbm.Kind(3*lvl) + 1 }
func kindC(lvl int) lbm.Kind { return lbm.KindUser + lbm.Kind(3*lvl) + 2 }

func elemKey(kind lbm.Kind, u, v int32, s int32) lbm.Key {
	return lbm.Key{Kind: kind, I: u, J: v, Seq: s}
}

// seqOf packs (batch tag, subproblem id) into a key Seq so concurrent
// batches on shared hosts cannot collide.
func seqOf(tag int32, s int) int32 { return tag<<16 | int32(s) }

// pow7 returns 7^ℓ.
func pow7(l int) int {
	p := 1
	for i := 0; i < l; i++ {
		p *= 7
	}
	return p
}

// nextPow2 returns the smallest power of two ≥ x (and ≥ 1).
func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}

// strassenDepth picks the recursion depth: limited by the processor count
// (need 7^k groups) and by the matrix size (blocks cannot shrink below 1).
func strassenDepth(p, D int) int {
	k := 0
	for pow7(k+1) <= p && (D>>(k+1)) >= 1 {
		k++
	}
	return k
}

// group returns the processor id range [lo, hi) of subproblem s at level l.
func group(procs []int32, l, s int) (lo, hi int) {
	g := pow7(l)
	lo = s * len(procs) / g
	hi = (s + 1) * len(procs) / g
	return lo, hi
}

// owner returns the virtual processor owning element (u,v) of subproblem s
// at level l. At the leaf level the whole subproblem is concentrated on the
// first group member so the leaf product is a purely local computation.
func owner(procs []int32, l, maxLvl, s int, u, v, size int32) int32 {
	lo, hi := group(procs, l, s)
	if l == maxLvl || hi-lo == 1 {
		return procs[lo]
	}
	return procs[lo+int(u*size+v)%(hi-lo)]
}

// PlanStrassen preprocesses one distributed Strassen batch. The machine's
// ring must be a field (checked at execution).
func PlanStrassen(net *vnet.Net, spec *StrassenSpec) (*StrassenJob, error) {
	m0 := len(spec.I)
	if len(spec.J) != m0 || len(spec.K) != m0 {
		return nil, fmt.Errorf("dense: strassen needs equal index set sizes, got %d/%d/%d", len(spec.I), len(spec.J), len(spec.K))
	}
	if len(spec.Procs) == 0 {
		return nil, fmt.Errorf("dense: strassen batch needs processors")
	}
	if m0 == 0 {
		return &StrassenJob{}, nil
	}
	D := nextPow2(m0)
	k := strassenDepth(len(spec.Procs), D)
	if pow7(k) >= 1<<16 || spec.Tag < 0 || spec.Tag >= 1<<15 {
		return nil, fmt.Errorf("dense: strassen batch too large or tag %d out of range", spec.Tag)
	}
	procs := spec.Procs
	n := int32(spec.N)
	bl := spec.Variant
	if bl == nil {
		bl = Classic
	}
	job := &StrassenJob{}

	// Presence bitmaps per level: pres[which][level][s][u*size+v].
	presA := make([][][]bool, k+1)
	presB := make([][][]bool, k+1)
	for l := 0; l <= k; l++ {
		cnt := pow7(l)
		presA[l] = make([][]bool, cnt)
		presB[l] = make([][]bool, cnt)
	}
	presA[0][0] = make([]bool, D*D)
	presB[0][0] = make([]bool, D*D)

	// Level 0 init: route A(i,j) and B(j,k) from their row-layout owners to
	// the level-0 element owners.
	var initMsgs []lbm.Send
	addInit := func(pres []bool, sup *matrix.Support, rowSet, colSet []int32,
		srcOf func(g1, g2 int32) (int32, lbm.Key), kind lbm.Kind) {
		for up, g1 := range rowSet {
			for vp, g2 := range colSet {
				if sup != nil && !sup.Has(int(g1), int(g2)) {
					continue
				}
				u, v := int32(up), int32(vp)
				pres[u*int32(D)+v] = true
				from, src := srcOf(g1, g2)
				to := owner(procs, 0, k, 0, u, v, int32(D))
				dst := elemKey(kind, u, v, seqOf(spec.Tag, 0))
				initMsgs = append(initMsgs, lbm.Send{From: from, To: to, Src: src, Dst: dst, Op: lbm.OpSet})
				job.cleanup = append(job.cleanup, hostKeyPair{net.Host[to], dst})
			}
		}
	}
	addInit(presA[0][0], spec.SA, spec.I, spec.J, func(g1, g2 int32) (int32, lbm.Key) {
		return int32(spec.Layout.OwnerA(g1, g2)), lbm.AKey(g1, g2)
	}, kindA(0))
	addInit(presB[0][0], spec.SB, spec.J, spec.K, func(g1, g2 int32) (int32, lbm.Key) {
		return n + int32(spec.Layout.OwnerB(g1, g2)), lbm.BKey(g1, g2)
	}, kindB(0))
	sortSends(initMsgs)
	job.init = initMsgs

	// Downward phases.
	for l := 0; l < k; l++ {
		size := int32(D >> l)
		half := size / 2
		var msgs []lbm.Send
		for s := 0; s < pow7(l); s++ {
			pa := presA[l][s]
			pb := presB[l][s]
			if pa == nil && pb == nil {
				continue
			}
			for c := 0; c < 7; c++ {
				child := s*7 + c
				var cpa, cpb []bool
				for u := int32(0); u < half; u++ {
					for v := int32(0); v < half; v++ {
						// A side.
						for _, t := range bl.a[c] {
							qr, qc := int32(t.idx/2), int32(t.idx%2)
							pu, pv := u+qr*half, v+qc*half
							if pa == nil || !pa[pu*size+pv] {
								continue
							}
							if cpa == nil {
								cpa = make([]bool, half*half)
							}
							cpa[u*half+v] = true
							op := lbm.OpAcc
							if t.sign < 0 {
								op = lbm.OpSub
							}
							from := owner(procs, l, k, s, pu, pv, size)
							to := owner(procs, l+1, k, child, u, v, half)
							dst := elemKey(kindA(l+1), u, v, seqOf(spec.Tag, child))
							msgs = append(msgs, lbm.Send{
								From: from, To: to,
								Src: elemKey(kindA(l), pu, pv, seqOf(spec.Tag, s)), Dst: dst, Op: op,
							})
							job.cleanup = append(job.cleanup, hostKeyPair{net.Host[to], dst})
						}
						// B side.
						for _, t := range bl.b[c] {
							qr, qc := int32(t.idx/2), int32(t.idx%2)
							pu, pv := u+qr*half, v+qc*half
							if pb == nil || !pb[pu*size+pv] {
								continue
							}
							if cpb == nil {
								cpb = make([]bool, half*half)
							}
							cpb[u*half+v] = true
							op := lbm.OpAcc
							if t.sign < 0 {
								op = lbm.OpSub
							}
							from := owner(procs, l, k, s, pu, pv, size)
							to := owner(procs, l+1, k, child, u, v, half)
							dst := elemKey(kindB(l+1), u, v, seqOf(spec.Tag, child))
							msgs = append(msgs, lbm.Send{
								From: from, To: to,
								Src: elemKey(kindB(l), pu, pv, seqOf(spec.Tag, s)), Dst: dst, Op: op,
							})
							job.cleanup = append(job.cleanup, hostKeyPair{net.Host[to], dst})
						}
					}
				}
				presA[l+1][child] = cpa
				presB[l+1][child] = cpb
			}
		}
		sortSends(msgs)
		job.down = append(job.down, msgs)
	}

	// Leaf products and their C presence (support product of presA, presB).
	presC := make([][][]bool, k+1)
	for l := 0; l <= k; l++ {
		presC[l] = make([][]bool, pow7(l))
	}
	leafSize := int32(D >> k)
	for s := 0; s < pow7(k); s++ {
		pa, pb := presA[k][s], presB[k][s]
		if pa == nil || pb == nil {
			continue
		}
		pc := make([]bool, leafSize*leafSize)
		any := false
		for u := int32(0); u < leafSize; u++ {
			for v := int32(0); v < leafSize; v++ {
				for w := int32(0); w < leafSize; w++ {
					if pa[u*leafSize+w] && pb[w*leafSize+v] {
						pc[u*leafSize+v] = true
						any = true
						break
					}
				}
			}
		}
		if !any {
			continue
		}
		presC[k][s] = pc
		lo, _ := group(procs, k, s)
		host := net.Host[procs[lo]]
		job.leafs = append(job.leafs, leafTask{
			host: host, s: seqOf(spec.Tag, s), size: leafSize, lvl: k,
			presA: pa, presB: pb, presC: pc,
		})
		for u := int32(0); u < leafSize; u++ {
			for v := int32(0); v < leafSize; v++ {
				if pc[u*leafSize+v] {
					job.cleanup = append(job.cleanup, hostKeyPair{host, elemKey(kindC(k), u, v, seqOf(spec.Tag, s))})
				}
			}
		}
	}

	// Upward phases: deepest transition first.
	for l := k - 1; l >= 0; l-- {
		size := int32(D >> l)
		half := size / 2
		var msgs []lbm.Send
		for s := 0; s < pow7(l); s++ {
			var pc []bool
			for q := 0; q < 4; q++ {
				qr, qc := int32(q/2), int32(q%2)
				for _, t := range bl.c[q] {
					child := s*7 + t.idx
					cpc := presC[l+1][child]
					if cpc == nil {
						continue
					}
					for u := int32(0); u < half; u++ {
						for v := int32(0); v < half; v++ {
							if !cpc[u*half+v] {
								continue
							}
							if pc == nil {
								pc = make([]bool, size*size)
							}
							pu, pv := u+qr*half, v+qc*half
							pc[pu*size+pv] = true
							op := lbm.OpAcc
							if t.sign < 0 {
								op = lbm.OpSub
							}
							from := owner(procs, l+1, k, child, u, v, half)
							to := owner(procs, l, k, s, pu, pv, size)
							dst := elemKey(kindC(l), pu, pv, seqOf(spec.Tag, s))
							msgs = append(msgs, lbm.Send{
								From: from, To: to,
								Src: elemKey(kindC(l+1), u, v, seqOf(spec.Tag, child)), Dst: dst, Op: op,
							})
							job.cleanup = append(job.cleanup, hostKeyPair{net.Host[to], dst})
						}
					}
				}
			}
			presC[l][s] = pc
		}
		sortSends(msgs)
		job.up = append(job.up, msgs)
	}

	// Final phase: C(0) elements -> X owners, masked by SX.
	var finals []lbm.Send
	pc := presC[0][0]
	if pc != nil {
		for up, gi := range spec.I {
			for vp, gk := range spec.K {
				u, v := int32(up), int32(vp)
				if !pc[u*int32(D)+v] {
					continue
				}
				if spec.SX != nil && !spec.SX.Has(int(gi), int(gk)) {
					continue
				}
				from := owner(procs, 0, k, 0, u, v, int32(D))
				finals = append(finals, lbm.Send{
					From: from, To: int32(spec.Layout.OwnerX(gi, gk)),
					Src: elemKey(kindC(0), u, v, seqOf(spec.Tag, 0)), Dst: lbm.XKey(gi, gk), Op: lbm.OpAcc,
				})
			}
		}
	}
	sortSends(finals)
	job.final = finals
	return job, nil
}

// StrassenProgram is a batch of Strassen jobs with every per-level
// communication phase scheduled and lowered to a real plan once, at plan
// time.
type StrassenProgram struct {
	Init, Final *lbm.Plan
	Down, Up    []*lbm.Plan
}

// PlanStrassenProgram schedules each phase of the jobs as one h-relation
// over all their virtual messages (routing.Schedule) and compiles it to a
// real plan. The jobs must use disjoint processors and tags, as the
// disjoint clusters of one clustering do; their input and output owners may
// be shared.
func PlanStrassenProgram(net *vnet.Net, jobs []*StrassenJob) (*StrassenProgram, error) {
	compilePhase := func(pick func(*StrassenJob) []lbm.Send, what string) (*lbm.Plan, error) {
		var msgs []lbm.Send
		for _, j := range jobs {
			msgs = append(msgs, pick(j)...)
		}
		real, err := net.Compile(routing.Schedule(msgs))
		if err != nil {
			return nil, fmt.Errorf("dense: strassen %s: %w", what, err)
		}
		return real, nil
	}
	maxDown, maxUp := 0, 0
	for _, j := range jobs {
		if len(j.down) > maxDown {
			maxDown = len(j.down)
		}
		if len(j.up) > maxUp {
			maxUp = len(j.up)
		}
	}
	prog := &StrassenProgram{}
	var err error
	if prog.Init, err = compilePhase(func(j *StrassenJob) []lbm.Send { return j.init }, "init"); err != nil {
		return nil, err
	}
	for l := 0; l < maxDown; l++ {
		l := l
		p, err := compilePhase(func(j *StrassenJob) []lbm.Send {
			if l < len(j.down) {
				return j.down[l]
			}
			return nil
		}, fmt.Sprintf("down.L%d", l+1))
		if err != nil {
			return nil, err
		}
		prog.Down = append(prog.Down, p)
	}
	for l := 0; l < maxUp; l++ {
		l := l
		p, err := compilePhase(func(j *StrassenJob) []lbm.Send {
			if l < len(j.up) {
				return j.up[l]
			}
			return nil
		}, fmt.Sprintf("up.L%d", maxUp-l))
		if err != nil {
			return nil, err
		}
		prog.Up = append(prog.Up, p)
	}
	if prog.Final, err = compilePhase(func(j *StrassenJob) []lbm.Send { return j.final }, "final"); err != nil {
		return nil, err
	}
	return prog, nil
}

// EmitStrassenProgram writes a batch of Strassen jobs to e: the init and
// down plans, every job's leaf block products, the up and final plans,
// then the clearing of the staged copies; every plan is a chain of one. It
// needs a field: its leaves multiply blocks, and its combinations subtract.
func EmitStrassenProgram(e lbm.Emitter, jobs []*StrassenJob, st *StrassenProgram) error {
	route := func(p *lbm.Plan, phase, row string) error {
		e.BeginPhase(phase)
		if err := e.Route(p, "dense/strassen "+row, "dense: strassen "+phase, false); err != nil {
			return err
		}
		e.EndPhase()
		return nil
	}
	e.BeginPhase("dense/strassen")
	e.Counter("jobs", float64(len(jobs)))
	// len(st.Down) is the recursion depth k: each level transition is one
	// down (and later one up) phase, labelled with its level.
	e.Counter("levels", float64(len(st.Down)))
	if err := route(st.Init, "init", "init"); err != nil {
		return err
	}
	for l, p := range st.Down {
		if err := route(p, fmt.Sprintf("down.L%d", l+1), "down"); err != nil {
			return err
		}
	}
	e.BeginPhase("leaf")
	// The per-job counters go ahead of every leaf: a leaf records nothing,
	// so the span reads the same in either order, and this is the order
	// stored programs hold.
	for _, j := range jobs {
		e.Counter("leaf_products", float64(len(j.leafs)))
	}
	for _, j := range jobs {
		for _, lt := range j.leafs {
			a := lbm.Block{Kind: kindA(lt.lvl), Seq: lt.s, Present: lt.presA}
			b := lbm.Block{Kind: kindB(lt.lvl), Seq: lt.s, Present: lt.presB}
			c := lbm.Block{Kind: kindC(lt.lvl), Seq: lt.s, Present: lt.presC}
			if err := e.Leaf(lt.host, lt.size, a, b, c); err != nil {
				return fmt.Errorf("dense: strassen leaf: %w", err)
			}
		}
	}
	e.EndPhase()
	for l, p := range st.Up {
		if err := route(p, fmt.Sprintf("up.L%d", len(st.Up)-l), "up"); err != nil {
			return err
		}
	}
	if err := route(st.Final, "final", "final"); err != nil {
		return err
	}
	for _, j := range jobs {
		for _, ck := range j.cleanup {
			e.Clear(ck.host, ck.key)
		}
	}
	e.EndPhase()
	return nil
}
