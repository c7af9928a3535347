package workload

import (
	"math/rand"
	"strings"
	"testing"

	"lbmm/internal/matrix"
)

func TestGeneratorsRealizeTheirClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, d := 40, 3
	cases := []struct {
		name string
		gen  func(int, int, *rand.Rand) *matrix.Support
		cls  matrix.Class
	}{
		{"US", US, matrix.US},
		{"RS", RS, matrix.RS},
		{"CS", CS, matrix.CS},
		{"BD", BD, matrix.BD},
		{"AS", AS, matrix.AS},
		{"GM", GM, matrix.GM},
	}
	for _, c := range cases {
		for trial := 0; trial < 5; trial++ {
			s := c.gen(n, d, rng)
			if !s.InClass(c.cls, d) {
				t.Errorf("%s: generated support not in %v(%d)", c.name, c.cls, d)
			}
			if s.NNZ == 0 {
				t.Errorf("%s: empty support", c.name)
			}
		}
	}
}

func TestBDGeneratorDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(40)
		d := 1 + rng.Intn(4)
		s := BD(n, d, rng)
		if got := s.Degeneracy(); got > d {
			t.Fatalf("BD(%d,%d) generated degeneracy %d", n, d, got)
		}
	}
}

func TestASBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n, d := 30+rng.Intn(40), 1+rng.Intn(5)
		s := AS(n, d, rng)
		if s.NNZ > d*n {
			t.Fatalf("AS budget exceeded: %d > %d", s.NNZ, d*n)
		}
		// The construction must escape BD(d) whenever the budget allows a
		// block larger than d — it is then *strictly* average-sparse.
		if (d+1)*(d+1) <= d*n/2 && s.Degeneracy() <= d {
			t.Errorf("AS(%d,%d) has degeneracy %d ≤ d", n, d, s.Degeneracy())
		}
	}
}

func TestForClassDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range []matrix.Class{matrix.US, matrix.RS, matrix.CS, matrix.BD, matrix.AS, matrix.GM} {
		s := ForClass(c, 20, 2, rng)
		if !s.InClass(c, 2) {
			t.Errorf("ForClass(%v) wrong class", c)
		}
	}
}

func TestInstanceDeterministic(t *testing.T) {
	i1 := Instance(matrix.US, matrix.BD, matrix.AS, 24, 3, 99)
	i2 := Instance(matrix.US, matrix.BD, matrix.AS, 24, 3, 99)
	if i1.Ahat.NNZ != i2.Ahat.NNZ || i1.CountTriangles() != i2.CountTriangles() {
		t.Error("Instance not deterministic for fixed seed")
	}
	i3 := Instance(matrix.US, matrix.BD, matrix.AS, 24, 3, 100)
	if i1.Ahat.NNZ == i3.Ahat.NNZ && i1.CountTriangles() == i3.CountTriangles() &&
		len(i1.Ahat.Entries()) == len(i3.Ahat.Entries()) {
		same := true
		e1, e3 := i1.Ahat.Entries(), i3.Ahat.Entries()
		for k := range e1 {
			if e1[k] != e3[k] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds gave identical instances")
		}
	}
}

func TestBlocksExtremal(t *testing.T) {
	n, d := 32, 4
	inst := Blocks(n, d)
	if got := inst.CountTriangles(); got != (n/d)*d*d*d {
		t.Errorf("blocks triangles = %d, want %d", got, (n/d)*d*d*d)
	}
	if !inst.Ahat.IsUS(d) {
		t.Error("blocks not US(d)")
	}
	sh := BlocksShifted(n, d)
	if got := sh.CountTriangles(); got != (n/d)*d*d*(d-d/2) {
		t.Errorf("shifted blocks triangles = %d, want %d: B shifted d/2 overlaps ⌈d/2⌉ columns of each block", got, (n/d)*d*d*(d-d/2))
	}
}

func TestHotPair(t *testing.T) {
	inst := HotPair(50)
	if inst.CountTriangles() != 50 {
		t.Errorf("hot pair triangles = %d", inst.CountTriangles())
	}
}

func TestMixedAndDescribe(t *testing.T) {
	inst := Mixed(24, 3, 5)
	if inst.CountTriangles() == 0 {
		t.Error("mixed instance empty")
	}
	s := Describe(inst)
	if !strings.Contains(s, "n=24") || !strings.Contains(s, "|T|=") {
		t.Errorf("Describe output %q", s)
	}
}
