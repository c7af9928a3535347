package fewtri

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
)

// TestGetJobShapes checks that a compiled job's wire form records its shape:
// an empty job, Lemma 3.1's 6+3 plans, the trivial job's 1+0 plans and the
// naive router's 1+1 plans each
// decode back to the same shape and bytes, and GetJob refuses any other split
// of plans — here the trivial fetch followed by an output chain.
func TestGetJobShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 16
	inst := graph.NewInstance(n, randomSupport(rng, n, 4*n), randomSupport(rng, n, 4*n), randomSupport(rng, n, 3*n))
	l := lbm.RowLayout(inst.Ahat, inst.Bhat, inst.Xhat)
	tris := inst.Triangles()
	lemma, err := Plan(n, l, tris, 0)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(job *Job) *CompiledJob {
		t.Helper()
		cj, err := Compile(lbm.NewSlotSpace(n), job)
		if err != nil {
			t.Fatal(err)
		}
		return cj
	}
	seal := func(put func(w *lbm.WireWriter)) []byte {
		t.Helper()
		w := lbm.NewWireWriter("fewtest\x00", 1)
		put(w)
		env, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	decode := func(env []byte) (*CompiledJob, error) {
		r, err := lbm.ReadWire(bytes.NewReader(env), "fewtest\x00", 1)
		if err != nil {
			return nil, err
		}
		cj := GetJob(r, n)
		return cj, r.Close()
	}

	for _, tc := range []struct {
		shape string
		job   *Job
	}{
		{"", &Job{}},
		{"lemma31", lemma},
		{"trivial", PlanTrivial(l, tris)},
		{"naive", PlanNaive(n, l, tris, 0)},
	} {
		cj := compile(tc.job)
		env := seal(cj.PutWire)
		got, err := decode(env)
		if err != nil {
			t.Fatalf("%q job: decode: %v", tc.shape, err)
		}
		if cj.Shape() != tc.shape || got.Shape() != tc.shape {
			t.Fatalf("%q job: compiled shape %q, decoded %q", tc.shape, cj.Shape(), got.Shape())
		}
		if !bytes.Equal(seal(got.PutWire), env) {
			t.Fatalf("%q job: decode → encode is not a fixed point", tc.shape)
		}
	}

	triv, lem := compile(PlanTrivial(l, tris)), compile(lemma)
	env := seal(func(w *lbm.WireWriter) {
		w.Int(0)
		w.Int(0)
		w.Plans(triv.in.Plans)
		w.Plans(lem.out.Plans)
		w.Count(0)
		w.Refs(nil)
	})
	if _, err := decode(env); err == nil || !strings.Contains(err.Error(), "1 input and 3 output plans") {
		t.Fatalf("a trivial fetch followed by an output chain: err=%v, want the shape refused", err)
	}
}
