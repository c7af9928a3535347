package cluster

import (
	"fmt"

	"lbmm/internal/dense"
	"lbmm/internal/lbm"
)

// PutWire appends the compiled batch to an envelope body: a presence flag
// and the program for each of the two dense routines the clustering can use.
func (cb *CompiledBatch) PutWire(w *lbm.WireWriter) {
	w.Bool(cb.strassen != nil)
	if cb.strassen != nil {
		cb.strassen.PutWire(w)
	}
	w.Bool(cb.cube != nil)
	if cb.cube != nil {
		cb.cube.PutWire(w)
	}
}

// GetBatch reads what PutWire wrote; failures are recorded on r.
func GetBatch(r *lbm.WireReader) *CompiledBatch {
	cb := &CompiledBatch{}
	if r.Bool() {
		cb.strassen = dense.GetStrassenProgram(r)
	}
	if r.Bool() {
		cb.cube = dense.GetCubeProgram(r)
	}
	if cb.strassen == nil && cb.cube == nil {
		r.Fail(fmt.Errorf("cluster: decode batch: empty batch (no cube or strassen program)"))
	}
	return cb
}

// ValidateRefs checks every slot reference the batch touches against the
// per-node arena sizes it will execute in.
func (cb *CompiledBatch) ValidateRefs(sizes []int32) error {
	if err := cb.strassen.ValidateRefs(sizes); err != nil {
		return err
	}
	return cb.cube.ValidateRefs(sizes)
}
