package fewtri

import (
	"fmt"

	"lbmm/internal/lbm"
)

// PutWire appends the compiled Lemma 3.1 job to an envelope body.
func (cj *CompiledJob) PutWire(w *lbm.WireWriter) {
	w.Int(cj.kappa)
	w.Int(cj.virtualNodes)
	w.Plans(cj.plans)
	w.Count(len(cj.prods))
	for _, prods := range cj.prods {
		w.Count(len(prods))
		for _, p := range prods {
			w.Ref(p.a)
			w.Ref(p.b)
			w.Ref(p.dst)
		}
	}
	w.Refs(cj.cleanup)
}

// GetJob reads what PutWire wrote; failures are recorded on r.
func GetJob(r *lbm.WireReader) *CompiledJob {
	cj := &CompiledJob{kappa: r.Int(), virtualNodes: r.Int(), plans: r.Plans()}
	switch n := len(cj.plans); n {
	case 0:
	case 9:
		cj.link()
	default:
		r.Fail(fmt.Errorf("fewtri: decode job: %d communication plans (want 0 or 9)", n))
	}
	if n := r.Count(4); n > 0 {
		cj.prods = make([][]compiledProd, n)
	}
	for g := range cj.prods {
		if n := r.Count(3 * 8); n > 0 {
			cj.prods[g] = make([]compiledProd, n)
		}
		for i := range cj.prods[g] {
			cj.prods[g][i] = compiledProd{a: r.Ref(), b: r.Ref(), dst: r.Ref()}
		}
	}
	cj.cleanup = r.Refs()
	return cj
}

// ValidateRefs checks every slot reference the job touches against the
// per-node arena sizes it will execute in. The plans' instructions are
// bounded by their own NumSlots snapshots; the triangle products and
// cleanup refs are only checked here, where the arena geometry is known.
func (cj *CompiledJob) ValidateRefs(sizes []int32) error {
	for i, cp := range cj.plans {
		if err := cp.FitsArenas(sizes); err != nil {
			return fmt.Errorf("fewtri: plan %d: %w", i, err)
		}
	}
	for _, prods := range cj.prods {
		for _, p := range prods {
			if err := lbm.CheckRefs(sizes, p.a, p.b, p.dst); err != nil {
				return fmt.Errorf("fewtri: product: %w", err)
			}
		}
	}
	if err := lbm.CheckRefs(sizes, cj.cleanup...); err != nil {
		return fmt.Errorf("fewtri: cleanup: %w", err)
	}
	return nil
}
