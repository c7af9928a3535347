package dense

import (
	"fmt"

	"lbmm/internal/lbm"
)

// This file writes the compiled dense programs into, and reads them out of,
// the flat plan envelope (internal/lbm/wire.go): each program lists its
// fields in order, straight from and into the runtime struct. The embedded
// lbm.CompiledPlans are validated by the reader as they are read; the slot
// references of the local work are checked by ValidateRefs, once the arena
// geometry they must fit is known.

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

// GetCubeProgram reads what PutWire wrote; failures are recorded on r.
func GetCubeProgram(r *lbm.WireReader) *CompiledCubeProgram {
	ccp := &CompiledCubeProgram{njobs: r.Int(), dist: r.Plan(), agg: r.Plan()}
	if n := r.Count(3 * 8); n > 0 {
		ccp.prods = make([]slotProd, n)
	}
	for i := range ccp.prods {
		ccp.prods[i] = slotProd{a: r.Ref(), b: r.Ref(), dst: r.Ref()}
	}
	ccp.cleanup = r.Refs()
	return ccp
}

// ValidateRefs checks every slot reference the cube program's local work
// touches against the per-node arena sizes it will execute in. The embedded
// plans validate their own instructions; the products and cleanup refs are
// only checked here, where the full arena geometry is known.
func (ccp *CompiledCubeProgram) ValidateRefs(sizes []int32) error {
	if ccp == nil {
		return nil
	}
	for _, cp := range []*lbm.CompiledPlan{ccp.dist, ccp.agg} {
		if err := cp.FitsArenas(sizes); err != nil {
			return fmt.Errorf("dense: cube program: %w", err)
		}
	}
	for _, p := range ccp.prods {
		if err := lbm.CheckRefs(sizes, p.a, p.b, p.dst); err != nil {
			return fmt.Errorf("dense: cube program product: %w", err)
		}
	}
	if err := lbm.CheckRefs(sizes, ccp.cleanup...); err != nil {
		return fmt.Errorf("dense: cube program cleanup: %w", err)
	}
	return nil
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

// GetStrassenProgram reads what PutWire wrote, checking that every leaf's
// slot tables have size² entries; failures are recorded on r.
func GetStrassenProgram(r *lbm.WireReader) *CompiledStrassenProgram {
	csp := &CompiledStrassenProgram{
		njobs: r.Int(), init: r.Plan(), final: r.Plan(), down: r.Plans(), up: r.Plans(),
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
			csp.leafJobs[j][i] = l
		}
	}
	csp.cleanup = r.Refs()
	return csp
}

// ValidateRefs checks every slot index the Strassen program's leaf products
// and cleanup touch against the per-node arena sizes (-1 marks a
// structurally absent element and is always legal).
func (csp *CompiledStrassenProgram) ValidateRefs(sizes []int32) error {
	if csp == nil {
		return nil
	}
	plans := []*lbm.CompiledPlan{csp.init, csp.final}
	plans = append(plans, csp.down...)
	plans = append(plans, csp.up...)
	for _, cp := range plans {
		if err := cp.FitsArenas(sizes); err != nil {
			return fmt.Errorf("dense: strassen program: %w", err)
		}
	}
	for _, leafs := range csp.leafJobs {
		for _, l := range leafs {
			if l.host < 0 || int(l.host) >= len(sizes) {
				return fmt.Errorf("dense: strassen leaf host %d out of range (n=%d)", l.host, len(sizes))
			}
			for _, slots := range [][]int32{l.a, l.b, l.c} {
				for _, sl := range slots {
					if sl != -1 && (sl < 0 || sl >= sizes[l.host]) {
						return fmt.Errorf("dense: strassen leaf slot %d out of range at node %d (%d slots)",
							sl, l.host, sizes[l.host])
					}
				}
			}
		}
	}
	if err := lbm.CheckRefs(sizes, csp.cleanup...); err != nil {
		return fmt.Errorf("dense: strassen cleanup: %w", err)
	}
	return nil
}
