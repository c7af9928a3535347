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

// multiplyFn is the shape MultiplyMap and multiplyOne share, so the engine
// tables can hold either.
type multiplyFn func(p *Prepared, a, b *matrix.Sparse, mopts ...lbm.Option) (*matrix.Sparse, *Result, error)

// multiplyOne runs the compiled walk on one value set: the k = 1 batch.
func multiplyOne(p *Prepared, a, b *matrix.Sparse, mopts ...lbm.Option) (*matrix.Sparse, *Result, error) {
	outs, res, err := p.MultiplyBatch([]*matrix.Sparse{a}, []*matrix.Sparse{b}, mopts...)
	if err != nil {
		return nil, nil, err
	}
	return outs[0], res, nil
}

// partialValues draws values on sup and then drops every position whose
// running index is ≡ lane (mod lane+2): each lane omits a different part of
// the structure, and an omitted position is the ring zero (§2.1).
func partialValues(sup *matrix.Support, r ring.Semiring, seed int64, lane int) *matrix.Sparse {
	m := matrix.Random(sup, r, seed)
	idx := 0
	for i, row := range sup.Rows {
		for _, j := range row {
			if idx%(lane+2) == lane {
				m.Set(i, int(j), r.Zero())
			}
			idx++
		}
	}
	return m
}

// TestMultiplyBatchDifferential is the batched differential property test
// over the full algorithm × ring matrix, on both arms of the value loader:
// MultiplyBatch over k ∈ {1, 2, 5} value assignments that each omit a
// different part of the structure must equal, lane for lane, the map
// oracle's product of that lane and the k = 1 walk of that lane — and every
// walk's Stats must be the same (one shared walk, per-slot accounting).
func TestMultiplyBatchDifferential(t *testing.T) {
	preps := []struct {
		name string
		mk   func(r ring.Semiring, seed int64) (*Prepared, error)
	}{
		{"lemma31/blocks", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Blocks(32, 4))
		}},
		{"lemma31/mixed", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareLemma31(r, workload.Mixed(40, 4, seed))
		}},
		{"theorem42/blocks", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Blocks(32, 4), Theorem42Opts{})
		}},
		{"theorem42/mixed", func(r ring.Semiring, seed int64) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Mixed(40, 4, seed), Theorem42Opts{})
		}},
	}
	rings := []ring.Semiring{ring.Counting{}, ring.MinPlus{}, ring.Real{}, ring.NewGFp(1009)}

	for _, pf := range preps {
		for _, r := range rings {
			seed := int64(1)
			label := fmt.Sprintf("%s/%s", pf.name, r.Name())
			p, err := pf.mk(r, seed)
			if err != nil {
				t.Fatalf("%s: prepare: %v", label, err)
			}
			const maxK = 5
			as := make([]*matrix.Sparse, maxK)
			bs := make([]*matrix.Sparse, maxK)
			want := make([]*matrix.Sparse, maxK)
			var wantStats lbm.Stats
			for l := 0; l < maxK; l++ {
				as[l] = partialValues(p.Inst.Ahat, r, 100*seed+int64(2*l), l)
				bs[l] = partialValues(p.Inst.Bhat, r, 100*seed+int64(2*l+1), l+1)
				x, res, err := p.MultiplyMap(as[l], bs[l])
				if err != nil {
					t.Fatalf("%s: map lane %d: %v", label, l, err)
				}
				if !matrix.Equal(x, matrix.MulReference(as[l], bs[l], p.Inst.Xhat)) {
					t.Fatalf("%s: map lane %d: wrong product", label, l)
				}
				want[l] = x
				if l > 0 && !reflect.DeepEqual(res.Stats, wantStats) {
					t.Fatalf("%s: map lane %d: stats depend on the values", label, l)
				}
				wantStats = res.Stats
				one, res, err := multiplyOne(p, as[l], bs[l])
				if err != nil {
					t.Fatalf("%s: k=1 walk of lane %d: %v", label, l, err)
				}
				if res.Lanes != 1 || !matrix.Equal(one, x) || !reflect.DeepEqual(res.Stats, wantStats) {
					t.Errorf("%s: k=1 walk of lane %d differs from the map oracle (Lanes=%d)", label, l, res.Lanes)
				}
			}
			for _, k := range []int{1, 2, maxK} {
				outs, res, err := p.MultiplyBatch(as[:k], bs[:k])
				if err != nil {
					t.Fatalf("%s: k=%d: %v", label, k, err)
				}
				if len(outs) != k || res.Lanes != k {
					t.Fatalf("%s: k=%d: got %d outputs, Lanes=%d", label, k, len(outs), res.Lanes)
				}
				for l := 0; l < k; l++ {
					if !matrix.Equal(outs[l], want[l]) {
						t.Errorf("%s: k=%d: lane %d output differs from the map oracle", label, k, l)
					}
				}
				if !reflect.DeepEqual(res.Stats, wantStats) {
					t.Errorf("%s: k=%d: batch stats differ from a one-lane run\n got %+v\nwant %+v",
						label, k, res.Stats, wantStats)
				}
			}
		}
	}
}

// TestMultiplyBatchValidation pins the batch input contract: empty batches,
// mismatched lane counts and out-of-structure lanes are rejected with the
// offending lane named.
func TestMultiplyBatchValidation(t *testing.T) {
	r := ring.Counting{}
	p, err := PrepareLemma31(r, workload.Blocks(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(p.Inst.Ahat, r, 1)
	b := matrix.Random(p.Inst.Bhat, r, 2)
	if _, _, err := p.MultiplyBatch(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := p.MultiplyBatch([]*matrix.Sparse{a, a}, []*matrix.Sparse{b}); err == nil {
		t.Error("mismatched lane counts accepted")
	}
	bad := matrix.NewSparse(p.Inst.Ahat.N, r)
	bad.Set(0, p.Inst.Ahat.N-1, 1)
	if within(bad, p.Inst.Ahat) == nil {
		t.Skip("random structure covers the probe position")
	}
	if _, _, err := p.MultiplyBatch([]*matrix.Sparse{a, bad}, []*matrix.Sparse{b, b}); err == nil {
		t.Error("out-of-structure lane accepted")
	}
}
