package algo

import (
	"math/rand"
	"testing"

	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

func TestPreparedMultiplyManyValueSets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_ = rng
	for _, mk := range []func(ring.Semiring) (*Prepared, error){
		func(r ring.Semiring) (*Prepared, error) {
			return PrepareLemma31(r, workload.Blocks(32, 4))
		},
		func(r ring.Semiring) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Blocks(32, 4))
		},
		func(r ring.Semiring) (*Prepared, error) {
			return PrepareTheorem42(r, workload.Mixed(32, 4, 9))
		},
	} {
		for _, r := range []ring.Semiring{ring.Counting{}, ring.NewGFp(1009), ring.MinPlus{}} {
			p, err := mk(r)
			if err != nil {
				t.Fatal(err)
			}
			prevRounds := -1
			for seed := int64(0); seed < 3; seed++ {
				a := matrix.Random(p.Inst.Ahat, r, seed)
				b := matrix.Random(p.Inst.Bhat, r, seed+50)
				x, res, err := multiplyOne(p, a, b)
				if err != nil {
					t.Fatal(err)
				}
				want := matrix.MulReference(a, b, p.Inst.Xhat)
				if !matrix.Equal(x, want) {
					t.Fatalf("%s over %s seed %d: wrong product", p.Name, r.Name(), seed)
				}
				// Rounds are a function of the support only: identical
				// across value sets.
				if prevRounds >= 0 && res.Rounds != prevRounds {
					t.Fatalf("%s: rounds changed across value sets (%d vs %d)",
						p.Name, res.Rounds, prevRounds)
				}
				prevRounds = res.Rounds
			}
		}
	}
}

func TestPreparedPartialValues(t *testing.T) {
	// Values may realize only part of the prepared support: missing
	// positions are ring zeros (§2.1 indicator semantics).
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	p, err := PrepareLemma31(r, inst)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(inst.Ahat, r, 1)
	// Zero out half of A's entries.
	cnt := 0
	for i := range inst.Ahat.N {
		for _, j := range inst.Ahat.Row(i) {
			if cnt%2 == 0 {
				a.Set(i, int(j), 0)
			}
			cnt++
		}
	}
	b := matrix.Random(inst.Bhat, r, 2)
	x, _, err := multiplyOne(p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(x, matrix.MulReference(a, b, inst.Xhat)) {
		t.Fatal("partial-value product wrong")
	}
}

func TestPreparedRejectsOutsideStructure(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	p, err := PrepareLemma31(r, inst)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.NewSparse(16, r)
	a.Set(0, 15, 7) // blocks of size 4: (0,15) is outside every block
	if inst.Ahat.Has(0, 15) {
		t.Skip("construction assumption failed")
	}
	b := matrix.Random(inst.Bhat, r, 2)
	if _, _, err := multiplyOne(p, a, b); err == nil {
		t.Error("value outside the prepared structure accepted")
	}
	// Dimension mismatch too.
	small := matrix.NewSparse(8, r)
	if _, _, err := multiplyOne(p, small, b); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
