package algo

import (
	"fmt"
	"reflect"
	"testing"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// loadPrefixCases are the prepared forms the load-prefix tests run over:
// every algorithm with a compiled form, theorem42 once with cube clusters
// (min-plus, a plain semiring) and once with Strassen clusters (the fields).
func loadPrefixCases(t *testing.T) []*Prepared {
	t.Helper()
	var preps []*Prepared
	for _, r := range []ring.Semiring{ring.Real{}, ring.NewGFp(1009), ring.MinPlus{}} {
		for _, alg := range []string{"trivial", "lemma31", "theorem42"} {
			p := prepareFor(t, r, workload.Blocks(32, 4), alg)
			c := p.meta.Cluster
			_, field := r.(ring.Field)
			if alg == "theorem42" && (field && c.StrassenClusters == 0 || !field && c.CubeClusters == 0) {
				t.Fatalf("theorem42/%s has cube/strassen clusters %d/%d", r.Name(), c.CubeClusters, c.StrassenClusters)
			}
			preps = append(preps, p)
		}
	}
	return preps
}

// TestLoadPrefix pins the invariant the value loader rests on: on every
// node the A, B and X load refs number the slots 0, 1, 2, … in load order,
// so BeginLoad's prefix stamp leaves exactly what putting every loaded slot
// one by one leaves — presence, live counts and Stats — and the dead counts
// raise each node's store by exactly its dead cells. On top of it, the
// compiled walk must keep the map oracle's product and Stats (PeakStore and
// the per-node loads included) at one lane and at three.
func TestLoadPrefix(t *testing.T) {
	for _, p := range loadPrefixCases(t) {
		label := fmt.Sprintf("%s/%s", p.Name, p.R.Name())
		cp := p.compiled
		next := make([]int32, len(cp.sizes))
		for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
			for _, lr := range refs {
				v := lr.ref.Node
				if lr.ref.Slot != next[v] {
					t.Fatalf("%s: node %d loads slot %d, want %d", label, v, lr.ref.Slot, next[v])
				}
				next[v]++
			}
		}
		if !reflect.DeepEqual(next, cp.loaded) {
			t.Fatalf("%s: loaded = %v, the load refs number %v", label, cp.loaded, next)
		}

		stamped := lbm.NewExecBatch(cp.sizes, 1, p.R)
		stamped.BeginLoad(cp.loaded, nil)
		put := lbm.NewExecBatch(cp.sizes, 1, p.R)
		for _, refs := range [][]loadRef{cp.loadA, cp.loadB, cp.x} {
			for _, lr := range refs {
				put.PutSlot(lr.ref, p.R.Zero())
			}
		}
		for v, size := range cp.sizes {
			if stamped.StoreLen(lbm.NodeID(v)) != int(cp.loaded[v]) {
				t.Fatalf("%s: node %d holds %d values after BeginLoad, want %d", label, v, stamped.StoreLen(lbm.NodeID(v)), cp.loaded[v])
			}
			for slot := int32(0); slot < size; slot++ {
				ref := lbm.SlotRef{Node: lbm.NodeID(v), Slot: slot}
				if stamped.Present(ref) != (slot < cp.loaded[v]) || put.Present(ref) != stamped.Present(ref) {
					t.Fatalf("%s: node %d slot %d: stamped present=%v, put present=%v, loaded %d",
						label, v, slot, stamped.Present(ref), put.Present(ref), cp.loaded[v])
				}
			}
		}
		if !reflect.DeepEqual(stamped.Stats(), put.Stats()) {
			t.Fatalf("%s: stats after the load differ:\n stamp %+v\n put   %+v", label, stamped.Stats(), put.Stats())
		}
		withDead := lbm.NewExecBatch(cp.sizes, 1, p.R)
		withDead.BeginLoad(cp.loaded, cp.dead)
		for v := range cp.sizes {
			if got, want := withDead.StoreLen(lbm.NodeID(v)), int(cp.loaded[v]+cp.dead[v]); got != want {
				t.Fatalf("%s: node %d holds %d values with its dead cells, want %d", label, v, got, want)
			}
		}

		checkOracle(t, label, p)
	}
}

// TestLoadPrefixLoopback runs the same walk through the full transport seam
// (lbm.Loopback owns every node, so every prefix is stamped): products and
// Stats stay those of the nil-transport walk and of the map oracle.
func TestLoadPrefixLoopback(t *testing.T) {
	for _, p := range loadPrefixCases(t) {
		checkOracle(t, fmt.Sprintf("%s/%s/loopback", p.Name, p.R.Name()), p, lbm.WithTransport(&lbm.Loopback{}))
	}
}

// checkOracle multiplies partial value sets on p at one lane and at three,
// with mopts, and holds every lane to the map oracle's product and every
// walk to the oracle's Stats.
func checkOracle(t *testing.T, label string, p *Prepared, mopts ...lbm.Option) {
	t.Helper()
	const k = 3
	as, bs, want := make([]*matrix.Sparse, k), make([]*matrix.Sparse, k), make([]*matrix.Sparse, k)
	var wantStats lbm.Stats
	for l := 0; l < k; l++ {
		as[l] = partialValues(p.Inst.Ahat, p.R, int64(2*l+1), l)
		bs[l] = partialValues(p.Inst.Bhat, p.R, int64(2*l+2), l+1)
		x, res, err := p.MultiplyMap(as[l], bs[l])
		if err != nil {
			t.Fatalf("%s: map lane %d: %v", label, l, err)
		}
		want[l], wantStats = x, res.Stats
	}
	for _, n := range []int{1, k} {
		outs, res, err := p.MultiplyBatch(as[:n], bs[:n], mopts...)
		if err != nil {
			t.Fatalf("%s: k=%d: %v", label, n, err)
		}
		for l := range outs {
			if !matrix.Equal(outs[l], want[l]) {
				t.Errorf("%s: k=%d: lane %d differs from the map oracle", label, n, l)
			}
		}
		if !reflect.DeepEqual(res.Stats, wantStats) {
			t.Errorf("%s: k=%d: stats differ from the map oracle\n got %+v\nwant %+v", label, n, res.Stats, wantStats)
		}
	}
}

// TestMultiplyBatchOutsideErrors pins the rejection of values outside the
// prepared structure now that the support check rides the load walk: the
// offending lane, first or last, is named with the text a separate check
// over every lane gives, and a mismatched dimension is caught before any
// value is loaded.
func TestMultiplyBatchOutsideErrors(t *testing.T) {
	r := ring.Counting{}
	p := prepareFor(t, r, workload.Blocks(16, 4), "lemma31")
	if p.Inst.Ahat.Has(0, 15) || p.Inst.Bhat.Has(0, 15) {
		t.Fatal("blocks of size 4 cover (0,15)")
	}
	const k = 3
	good := func() ([]*matrix.Sparse, []*matrix.Sparse) {
		as, bs := make([]*matrix.Sparse, k), make([]*matrix.Sparse, k)
		for l := range as {
			as[l] = matrix.Random(p.Inst.Ahat, r, int64(2*l+1))
			bs[l] = matrix.Random(p.Inst.Bhat, r, int64(2*l+2))
		}
		return as, bs
	}
	for _, tc := range []struct {
		lane  int
		b     bool
		small bool
		want  string
	}{
		{0, false, false, "algo: lane 0: A value at (0,15) outside the prepared structure"},
		{k - 1, true, false, "algo: lane 2: B value at (0,15) outside the prepared structure"},
		{k - 1, false, true, "algo: lane 2: A dimension 8 outside prepared structure 16"},
	} {
		as, bs := good()
		ms := as
		if tc.b {
			ms = bs
		}
		if tc.small {
			ms[tc.lane] = matrix.NewSparse(8, r)
		} else {
			ms[tc.lane].Set(0, 15, 7)
		}
		if _, _, err := p.MultiplyBatch(as, bs); err == nil || err.Error() != tc.want {
			t.Errorf("lane %d: err = %v, want %q", tc.lane, err, tc.want)
		}
		if _, _, err := p.MultiplyBatch(as[tc.lane:tc.lane+1], bs[tc.lane:tc.lane+1]); err == nil {
			t.Errorf("lane %d alone: accepted", tc.lane)
		}
	}
}

// TestMultiplyBatchRejectThenReuse checks that a rejected call leaves
// nothing behind for the next call on the same Prepared: the rejected call
// loads its values into a pooled executor before the fused count fails it,
// and the good call that draws the same executor must still compute the
// oracle's product — at one lane and at three.
func TestMultiplyBatchRejectThenReuse(t *testing.T) {
	r := ring.Real{}
	p := prepareFor(t, r, workload.Blocks(16, 4), "lemma31")
	for _, k := range []int{1, 3} {
		as, bs := make([]*matrix.Sparse, k), make([]*matrix.Sparse, k)
		for l := range as {
			as[l] = matrix.Random(p.Inst.Ahat, r, int64(10*k+2*l))
			bs[l] = matrix.Random(p.Inst.Bhat, r, int64(10*k+2*l+1))
		}
		bad := as[k-1].Clone()
		bad.Set(0, 15, 7)
		badAs := append(append([]*matrix.Sparse(nil), as[:k-1]...), bad)
		if _, _, err := p.MultiplyBatch(badAs, bs); err == nil {
			t.Fatalf("k=%d: out-of-structure lane accepted", k)
		}
		for l := range as {
			as[l] = partialValues(p.Inst.Ahat, r, int64(100+l), l)
		}
		outs, _, err := p.MultiplyBatch(as, bs)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for l := range outs {
			if !matrix.Equal(outs[l], matrix.MulReference(as[l], bs[l], p.Inst.Xhat)) {
				t.Errorf("k=%d: lane %d after a rejected call differs from the oracle", k, l)
			}
		}
	}
}
