package cluster

import (
	"fmt"

	"lbmm/internal/dense"
	"lbmm/internal/lbm"
)

// PutWire appends the compiled batch to an envelope body: the batch's
// cluster count, triangle count and cluster volume, then a presence flag and
// the program for each of the two dense routines the clustering can use.
func (cb *CompiledBatch) PutWire(w *lbm.WireWriter) {
	w.Int(cb.sum.clusters)
	w.Int(cb.sum.triangles)
	w.Int(cb.sum.volume)
	w.Bool(cb.strassen != nil)
	if cb.strassen != nil {
		cb.strassen.PutWire(w)
	}
	w.Bool(cb.cube != nil)
	if cb.cube != nil {
		cb.cube.PutWire(w)
	}
}

// GetBatch reads what PutWire wrote for an n-node machine; failures are
// recorded on r. The batch must count at least one cluster per dense job,
// and no negative triangles or volume.
func GetBatch(r *lbm.WireReader, n int) *CompiledBatch {
	cb := &CompiledBatch{sum: summary{clusters: r.Int(), triangles: r.Int(), volume: r.Int()}}
	if r.Bool() {
		cb.strassen = dense.GetStrassenProgram(r, n)
	}
	if r.Bool() {
		cb.cube = dense.GetCubeProgram(r, n)
	}
	if cb.strassen == nil && cb.cube == nil {
		r.Fail(fmt.Errorf("cluster: decode batch: empty batch (no cube or strassen program)"))
	}
	if s := cb.sum; s.clusters < cb.cube.Jobs()+cb.strassen.Jobs() || s.triangles < 0 || s.volume < 0 {
		r.Fail(fmt.Errorf("cluster: decode batch: %d clusters, %d triangles and volume %d for %d dense jobs",
			s.clusters, s.triangles, s.volume, cb.cube.Jobs()+cb.strassen.Jobs()))
	}
	return cb
}

// VisitRefs hands v every slot the batch touches.
func (cb *CompiledBatch) VisitRefs(v lbm.RefVisitor) {
	cb.strassen.VisitRefs(v)
	cb.cube.VisitRefs(v)
}
