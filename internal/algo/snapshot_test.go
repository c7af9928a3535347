package algo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// prepareFor builds a Prepared for an instance with the named algorithm.
func prepareFor(t *testing.T, r ring.Semiring, inst *graph.Instance, name string) *Prepared {
	t.Helper()
	var p *Prepared
	var err error
	switch name {
	case "lemma31":
		p, err = PrepareLemma31(r, inst)
	case "theorem42":
		p, err = PrepareTheorem42(r, inst, Theorem42Opts{})
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	return p
}

// snapshot writes p's compiled state as a sealed test envelope.
func snapshot(t *testing.T, p *Prepared) []byte {
	t.Helper()
	w := lbm.NewWireWriter("algotest", 1)
	if err := p.EncodeCompiled(w); err != nil {
		t.Fatalf("encode: %v", err)
	}
	env, err := w.Bytes()
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	return env
}

// restore reads a test envelope back, insisting the body is fully consumed.
func restore(env []byte) (*Prepared, error) {
	r, err := lbm.ReadWire(bytes.NewReader(env), "algotest", 1)
	if err != nil {
		return nil, err
	}
	q, err := DecodeCompiledPrepared(r)
	if err == nil {
		err = r.Close()
	}
	return q, err
}

// reseal rewrites an envelope's header for whatever body now follows it
// (length at offset 12, CRC-32C at 16), so damage to the body reaches the
// body reader instead of stopping at the checksum.
func reseal(env []byte) []byte {
	body := env[20:]
	binary.LittleEndian.PutUint32(env[12:], uint32(len(body)))
	binary.LittleEndian.PutUint32(env[16:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return env
}

// TestSnapshotRoundTripDifferential checks that a decoded snapshot computes
// exactly what the original prepared form computes — scalar and batched —
// across workloads, rings and both algorithms.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	cases := []struct {
		name string
		inst *graph.Instance
	}{
		{"blocks", workload.Blocks(24, 4)},
		{"mixed", workload.Mixed(28, 4, 7)},
		{"us", workload.Instance(matrix.US, matrix.US, matrix.US, 24, 3, 11)},
		{"hotpair", workload.HotPair(16)},
	}
	rings := []ring.Semiring{ring.Boolean{}, ring.MinPlus{}, ring.NewGFp(257), ring.Real{}}
	for _, tc := range cases {
		for _, r := range rings {
			for _, alg := range []string{"lemma31", "theorem42"} {
				t.Run(tc.name+"/"+r.Name()+"/"+alg, func(t *testing.T) {
					p := prepareFor(t, r, tc.inst, alg)

					env := snapshot(t, p)
					if !bytes.Equal(env, snapshot(t, p)) {
						t.Fatalf("encoding the same plan twice gave different bytes")
					}
					q, err := restore(env)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if !bytes.Equal(snapshot(t, q), env) {
						t.Fatalf("decode → encode is not a fixed point")
					}
					if q.Name != p.Name {
						t.Fatalf("name %q != %q", q.Name, p.Name)
					}
					if q.CompiledBytes() != p.CompiledBytes() {
						t.Fatalf("compiled bytes %d != %d", q.CompiledBytes(), p.CompiledBytes())
					}
					wsend, wrecv := p.NodeLoads()
					gsend, grecv := q.NodeLoads()
					if !reflect.DeepEqual(gsend, wsend) || !reflect.DeepEqual(grecv, wrecv) {
						t.Fatalf("restored node loads differ")
					}

					a := matrix.Random(tc.inst.Ahat, r, 1)
					b := matrix.Random(tc.inst.Bhat, r, 2)
					want, wres, err := multiplyOne(p, a, b)
					if err != nil {
						t.Fatalf("original multiply: %v", err)
					}
					got, gres, err := multiplyOne(q, a, b)
					if err != nil {
						t.Fatalf("restored multiply: %v", err)
					}
					if !matrix.Equal(got, want) {
						t.Fatalf("restored product differs from original")
					}
					if gres.Rounds != wres.Rounds {
						t.Fatalf("restored rounds %d != original %d", gres.Rounds, wres.Rounds)
					}
					if err := Verify(got, a, b, tc.inst.Xhat); err != nil {
						t.Fatalf("restored product wrong: %v", err)
					}

					// Batched lanes through the restored form.
					as := []*matrix.Sparse{a, matrix.Random(tc.inst.Ahat, r, 3)}
					bs := []*matrix.Sparse{b, matrix.Random(tc.inst.Bhat, r, 4)}
					wouts, wres, err := p.MultiplyBatch(as, bs, lbm.WithTrace())
					if err != nil {
						t.Fatalf("original batch: %v", err)
					}
					gouts, gres, err := q.MultiplyBatch(as, bs, lbm.WithTrace())
					if err != nil {
						t.Fatalf("restored batch: %v", err)
					}
					if !reflect.DeepEqual(gres.Profile.Export(), wres.Profile.Export()) {
						t.Fatalf("restored batch traces a different profile")
					}
					for l := range wouts {
						if !matrix.Equal(gouts[l], wouts[l]) {
							t.Fatalf("restored batch lane %d differs", l)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotHasNoMapForm checks that a restored preparation serves the
// compiled walk and fails MultiplyMap with the typed ErrNoMapForm.
func TestSnapshotHasNoMapForm(t *testing.T) {
	inst := workload.Blocks(16, 4)
	r := ring.Counting{}
	p := prepareFor(t, r, inst, "lemma31")
	q, err := restore(snapshot(t, p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if q.Layout != nil {
		t.Fatalf("restored plan carries a layout nothing reads")
	}
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	if _, _, err := q.MultiplyMap(a, b); !errors.Is(err, ErrNoMapForm) {
		t.Fatalf("map multiply on restored form: err=%v, want ErrNoMapForm", err)
	}
	// The compiled walk still serves, and agrees with the original's oracle.
	want, _, err := p.MultiplyMap(a, b)
	if err != nil {
		t.Fatalf("map multiply on the original: %v", err)
	}
	outs, _, err := q.MultiplyBatch([]*matrix.Sparse{a, a}, []*matrix.Sparse{b, b})
	if err != nil {
		t.Fatalf("compiled batch on restored form: %v", err)
	}
	for l, x := range outs {
		if !matrix.Equal(x, want) {
			t.Fatalf("restored form lane %d differs from the map oracle", l)
		}
	}
}

// TestSnapshotRejectsTampering checks the decoder's own validation, behind
// the envelope checksum: a body cut short at any point — header resealed so
// the cut reaches the body reader — fails a bounds check, and a GF(p)
// snapshot restores its modulus rather than the default one.
func TestSnapshotRejectsTampering(t *testing.T) {
	inst := workload.Blocks(16, 4)
	env := snapshot(t, prepareFor(t, ring.Counting{}, inst, "lemma31"))
	for n := 20; n < len(env); n++ {
		cut := reseal(append([]byte(nil), env[:n]...))
		if _, err := restore(cut); err == nil {
			t.Fatalf("body truncated to %d of %d bytes decoded cleanly", n-20, len(env)-20)
		}
	}
	if _, err := restore(reseal(append(append([]byte(nil), env...), 0))); err == nil {
		t.Fatalf("trailing byte after the body decoded cleanly")
	}
	q, err := restore(snapshot(t, prepareFor(t, ring.NewGFp(257), inst, "lemma31")))
	if err != nil {
		t.Fatalf("decode gfp: %v", err)
	}
	if f, ok := q.R.(ring.GFp); !ok || f.P != 257 {
		t.Fatalf("restored ring %#v, want GFp(257)", q.R)
	}
}
