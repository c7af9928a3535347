package fewtri

import (
	"fmt"

	"lbmm/internal/lbm"
)

// PutWire appends the compiled job to an envelope body. The input and output
// chains go out as two plan lists, so their lengths record the job's shape.
func (cj *CompiledJob) PutWire(w *lbm.WireWriter) {
	w.Int(cj.kappa)
	w.Int(cj.virtualNodes)
	w.Plans(cj.in.Plans)
	w.Plans(cj.out.Plans)
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

// GetJob reads what PutWire wrote for an n-node machine; failures are
// recorded on r. A job has no plans, or a shape's: 6 input and 3 output
// plans for Lemma 3.1, 1 and 0 for the trivial algorithm, 1 and 1 for the
// naive router.
func GetJob(r *lbm.WireReader, n int) *CompiledJob {
	cj := &CompiledJob{kappa: r.Int(), virtualNodes: r.Int()}
	in, out := r.Plans(n), r.Plans(n)
	if len(in)+len(out) > 0 {
		if cj.sh = shapeOf(len(in), len(out)); cj.sh == nil {
			r.Fail(fmt.Errorf("fewtri: decode job: %d input and %d output plans (want 6 and 3, 1 and 0, or 1 and 1)", len(in), len(out)))
		} else {
			cj.plans = append(in, out...)
			cj.link()
		}
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

// Shape names the job's shape: "lemma31", "trivial", "naive", or "" for a
// job with no plans.
func (cj *CompiledJob) Shape() string {
	if cj.sh == nil {
		return ""
	}
	return cj.sh.phase
}

// VisitRefs hands v every slot the job touches: its plans, each triangle
// product's operands and destination, then the cleanup sweep.
func (cj *CompiledJob) VisitRefs(v lbm.RefVisitor) {
	for _, cp := range cj.plans {
		v.Plan(cp)
	}
	for _, prods := range cj.prods {
		for _, p := range prods {
			v.Ref(p.a)
			v.Ref(p.b)
			v.Ref(p.dst)
		}
	}
	for _, ref := range cj.cleanup {
		v.Ref(ref)
	}
}
