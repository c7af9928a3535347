package dense

import (
	"fmt"

	"lbmm/internal/lbm"
)

// This file writes the compiled dense programs into, and reads them out of,
// the flat plan envelope (internal/lbm/wire.go): each program lists its
// fields in order, straight from and into the runtime struct. The embedded
// lbm.CompiledPlans are validated by the reader as they are read; the slot
// references of the local work are handed to a visitor (VisitRefs), which
// derives the arena geometry they must fit.

// leafWireMin is the least a compiledLeaf occupies: host, size and three
// empty slot tables.
const leafWireMin = 4 + 4 + 3*4

// PutWire appends the cube program to an envelope body.
func (ccp *CompiledCubeProgram) PutWire(w *lbm.WireWriter) {
	w.Int(ccp.njobs)
	w.Plan(ccp.dist)
	w.Plan(ccp.agg)
	w.Count(len(ccp.prods))
	for _, p := range ccp.prods {
		w.Ref(p.a)
		w.Ref(p.b)
		w.Ref(p.dst)
	}
	w.Refs(ccp.cleanup)
}

// GetCubeProgram reads what PutWire wrote for an n-node machine; failures
// are recorded on r.
func GetCubeProgram(r *lbm.WireReader, n int) *CompiledCubeProgram {
	ccp := &CompiledCubeProgram{njobs: r.Int(), dist: r.Plan(n), agg: r.Plan(n)}
	if n := r.Count(3 * 8); n > 0 {
		ccp.prods = make([]slotProd, n)
	}
	for i := range ccp.prods {
		ccp.prods[i] = slotProd{a: r.Ref(), b: r.Ref(), dst: r.Ref()}
	}
	ccp.cleanup = r.Refs()
	return ccp
}

// VisitRefs hands v every slot the cube program touches: its two plans, then
// each product's operands and destination, then the cleanup sweep.
func (ccp *CompiledCubeProgram) VisitRefs(v lbm.RefVisitor) {
	if ccp == nil {
		return
	}
	v.Plan(ccp.dist)
	v.Plan(ccp.agg)
	for _, p := range ccp.prods {
		v.Ref(p.a)
		v.Ref(p.b)
		v.Ref(p.dst)
	}
	for _, ref := range ccp.cleanup {
		v.Ref(ref)
	}
}

// PutWire appends the Strassen program to an envelope body.
func (csp *CompiledStrassenProgram) PutWire(w *lbm.WireWriter) {
	w.Int(csp.njobs)
	w.Plan(csp.init)
	w.Plan(csp.final)
	w.Plans(csp.down)
	w.Plans(csp.up)
	w.Count(len(csp.leafJobs))
	for _, leafs := range csp.leafJobs {
		w.Count(len(leafs))
		for _, l := range leafs {
			w.Int32(l.host)
			w.Int32(l.size)
			w.Int32s(l.a)
			w.Int32s(l.b)
			w.Int32s(l.c)
		}
	}
	w.Refs(csp.cleanup)
}

// GetStrassenProgram reads what PutWire wrote for an n-node machine,
// checking that every leaf is hosted on a node of it and has slot tables of
// size² entries; failures are recorded on r.
func GetStrassenProgram(r *lbm.WireReader, n int) *CompiledStrassenProgram {
	csp := &CompiledStrassenProgram{
		njobs: r.Int(), init: r.Plan(n), final: r.Plan(n), down: r.Plans(n), up: r.Plans(n),
	}
	if n := r.Count(4); n > 0 {
		csp.leafJobs = make([][]compiledLeaf, n)
	}
	for j := range csp.leafJobs {
		if n := r.Count(leafWireMin); n > 0 {
			csp.leafJobs[j] = make([]compiledLeaf, n)
		}
		for i := range csp.leafJobs[j] {
			l := compiledLeaf{host: r.Int32(), size: r.Int32(), a: r.Int32s(), b: r.Int32s(), c: r.Int32s()}
			want := int(l.size) * int(l.size)
			if l.size < 0 || len(l.a) != want || len(l.b) != want || len(l.c) != want {
				r.Fail(fmt.Errorf("dense: decode strassen program: leaf table size mismatch (size %d, %d/%d/%d entries)",
					l.size, len(l.a), len(l.b), len(l.c)))
			}
			if l.host < 0 || int(l.host) >= n {
				r.Fail(fmt.Errorf("dense: decode strassen program: leaf host %d out of range (n=%d)", l.host, n))
			}
			csp.leafJobs[j][i] = l
		}
	}
	csp.cleanup = r.Refs()
	return csp
}

// VisitRefs hands v every slot the Strassen program touches: its plans, each
// leaf's present elements (-1 marks a structurally absent one, which touches
// nothing), then the cleanup sweep.
func (csp *CompiledStrassenProgram) VisitRefs(v lbm.RefVisitor) {
	if csp == nil {
		return
	}
	v.Plan(csp.init)
	v.Plan(csp.final)
	for _, cp := range csp.down {
		v.Plan(cp)
	}
	for _, cp := range csp.up {
		v.Plan(cp)
	}
	for _, leafs := range csp.leafJobs {
		for _, l := range leafs {
			for _, slots := range [][]int32{l.a, l.b, l.c} {
				for _, sl := range slots {
					if sl != -1 {
						v.Ref(lbm.SlotRef{Node: l.host, Slot: sl})
					}
				}
			}
		}
	}
	for _, ref := range csp.cleanup {
		v.Ref(ref)
	}
}
