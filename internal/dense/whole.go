package dense

import (
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/vnet"
)

// Routine is a whole-instance dense routine, planned: it writes its steps
// to an emitter, the compiled program's lowering or the map oracle.
type Routine func(e lbm.Emitter) error

// allIndices returns [0, n) as int32s.
func allIndices(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// WholeCube plans the masked cube algorithm on the entire instance, using
// all 3n role virtual nodes as processors. On a uniformly sparse instance
// this is the O(d·n^{1/3})-round algorithm attributed to [2] in Table 1; on
// a dense instance it is the O(n^{4/3}) semiring algorithm of [3].
func WholeCube(l *lbm.Layout, inst *graph.Instance) (Routine, error) {
	net := vnet.Roles(inst.N)
	all := allIndices(inst.N)
	job, err := PlanCube(net, &CubeSpec{
		N: inst.N, Procs: allIndices(3 * inst.N),
		I: all, J: all, K: all, Tris: inst.Triangles(), Layout: l,
	})
	if err != nil {
		return nil, err
	}
	jobs := []*CubeJob{job}
	prog, err := PlanCubeProgram(net, jobs)
	if err != nil {
		return nil, err
	}
	return func(e lbm.Emitter) error { return EmitCubeProgram(e, jobs, prog) }, nil
}

// WholeStrassen plans the distributed Strassen algorithm on the entire
// instance over a field, using all 3n role virtual nodes as processors: the
// executable O(n^{2-2/log₂7}) dense field algorithm of Table 1. A nil
// variant is classic Strassen. It multiplies the live elements only
// (graph.Instance.Live): on a dense instance, every element.
func WholeStrassen(l *lbm.Layout, inst *graph.Instance, variant *bilinear) (Routine, error) {
	net := vnet.Roles(inst.N)
	all := allIndices(inst.N)
	liveA, liveB, liveX := inst.Live()
	job, err := PlanStrassen(net, &StrassenSpec{
		N: inst.N, Procs: allIndices(3 * inst.N),
		I: all, J: all, K: all,
		SA: liveSupport(inst.Ahat, liveA), SB: liveSupport(inst.Bhat, liveB), SX: liveSupport(inst.Xhat, liveX),
		Layout: l, Variant: variant,
	})
	if err != nil {
		return nil, err
	}
	jobs := []*StrassenJob{job}
	prog, err := PlanStrassenProgram(net, jobs)
	if err != nil {
		return nil, err
	}
	return func(e lbm.Emitter) error { return EmitStrassenProgram(e, jobs, prog) }, nil
}

// liveSupport returns the positions of sup that live marks.
func liveSupport(sup *matrix.Support, live []bool) *matrix.Support {
	var es [][2]int
	for i := range sup.N {
		for k := sup.Off[i]; k < sup.Off[i+1]; k++ {
			if live[k] {
				es = append(es, [2]int{i, int(sup.Col[k])})
			}
		}
	}
	return matrix.NewSupport(sup.N, es)
}
