package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lbmm/internal/matrix"
)

// TestFuzzSeedsDecode keeps the committed valid-* seeds honest: they must be
// envelopes this build decodes, or the fuzzer starts from nothing but
// rejects. A layout change regenerates them (and bumps the version).
func TestFuzzSeedsDecode(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "valid-*"))
	if err != nil || len(seeds) != len(envShapes(t)) {
		t.Fatalf("valid seeds %v (err=%v), want one per plan shape", seeds, err)
	}
	for _, path := range seeds {
		if _, err := DecodePrepared(bytes.NewReader(readSeed(t, path))); err != nil {
			t.Fatalf("%s no longer decodes: %v", path, err)
		}
	}
}

// TestFuzzSeedsAreFresh pins every committed valid-* seed to a fresh
// encoding of its envShapes plan, so a change that moves one byte of a plan
// shows here, and a seed the encoder no longer writes is regenerated rather
// than fuzzed from. A seed is the envelope as a corpus entry:
// "go test fuzz v1\n[]byte(%q)\n".
func TestFuzzSeedsAreFresh(t *testing.T) {
	for _, s := range envShapes(t) {
		path := filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "valid-"+s.name)
		if got, want := readSeed(t, path), encode(t, s.p); !bytes.Equal(got, want) {
			t.Errorf("%s differs from a fresh encoding of its plan (%d bytes, fresh %d)", path, len(got), len(want))
		}
	}
}

// readSeed returns the input of one committed []byte corpus entry.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
	env, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: not a []byte corpus entry: %v", path, err)
	}
	return []byte(env)
}

// FuzzDecodePrepared feeds arbitrary bytes to the one decoder that reads
// compiled plans from outside the process (plan-store files, mesh job
// frames). The seed corpus (testdata/fuzz/FuzzDecodePrepared) holds one
// valid envelope per plan shape of envShapes, a header declaring a body
// that never comes, and — each damage applied to a fresh encoding and
// resealed so it reaches the body reader — a body cut in half, a slab
// length that exceeds the body, a round index that runs past its plan's
// instructions and a cleanup ref whose slot has its high byte set
// (hugeCleanupSlot); plus a sealed naive-router job under the name lemma31
// (naiveAsLemma31). The property: a decode ends in a typed error, or in a
// Prepared whose re-encoding decodes to the same plan and whose compiled
// size is at most compiledCap of the input — never a panic, and never more
// heap than a fixed multiple of the input.
func FuzzDecodePrepared(f *testing.F) {
	f.Fuzz(func(t *testing.T, env []byte) {
		p, got, err := decodeAllocs(env)
		if got > allocCap(env) {
			t.Fatalf("decode allocated %d bytes for a %d-byte input (err=%v)", got, len(env), err)
		}
		if err != nil {
			if !errors.Is(err, ErrEnvelope) && !errors.Is(err, ErrEnvelopeVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if c := p.CompiledBytes(); c > compiledCap(env) {
			t.Fatalf("decoded plan prices at %d compiled bytes for a %d-byte input", c, len(env))
		}
		again := encode(t, p)
		q, err := DecodePrepared(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoding of a decoded plan does not decode: %v", err)
		}
		if !bytes.Equal(encode(t, q), again) {
			t.Fatalf("re-encoding is not a fixed point")
		}
		pfp, perr := p.Fingerprint()
		qfp, qerr := q.Fingerprint()
		if perr != nil || qerr != nil || pfp != qfp {
			t.Fatalf("content address changed over re-encoding: %s (%v) vs %s (%v)", pfp, perr, qfp, qerr)
		}
	})
}

// compiledCap bounds the compiled size of a plan decoded from env. Every
// arena slot is touched by a ref the envelope holds or by a load (the
// gap-free rule), and the loads are derived, one per live support cell,
// which the envelope carries as a 4-byte column index. Every resident
// structure is priced from what the envelope carries: a 12-byte load per
// such cell, a 4-byte dead count per node against the 12 bytes of its
// three support rows, and the program from its slabs. So a wire byte
// accounts for at most 4 bytes of compiled size; the cap doubles that.
func compiledCap(env []byte) int64 { return 8 * int64(len(env)) }

// TestDecodeMutantArenas flips each of the two low bits of every body byte
// of each committed valid-* seed, reseals it and decodes it: no mutant that
// decodes may price its compiled form at more than 4× the seed's, nor past
// compiledCap, nor panic when it multiplies. When the envelope carried
// arena sizes, 32 mutants of each seed decoded to arenas far larger than
// any ref reached; before the decoder walked the program for definition
// before use, 48 lemma31, 32 cube and 48 trivial mutants decoded and then
// panicked on a missing slot. Wrong products are logged, not failed: no
// decode-time check catches them yet.
func TestDecodeMutantArenas(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodePrepared", "valid-*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("valid seeds %v (err=%v)", seeds, err)
	}
	for _, path := range seeds {
		env := readSeed(t, path)
		p, err := DecodePrepared(bytes.NewReader(env))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		limit := 4 * p.CompiledBytes()
		mutants, decoded, oversized, wrong, panics := 0, 0, 0, 0, 0
		for off := hdrLen; off < len(env); off++ {
			for bit := 0; bit < 2; bit++ {
				bad := append([]byte(nil), env...)
				bad[off] ^= 1 << bit
				mutants++
				q, err := DecodePrepared(bytes.NewReader(reseal(bad)))
				if err != nil {
					continue
				}
				decoded++
				if c := q.CompiledBytes(); c > limit || c > compiledCap(bad) {
					oversized++
					t.Errorf("%s: bit %d of byte %d flipped: compiled size %d, the seed's is %d", filepath.Base(path), bit, off, c, p.CompiledBytes())
				}
				switch panicked, bad := multiplyMutant(q); {
				case panicked != nil:
					panics++
					t.Errorf("%s: bit %d of byte %d flipped: multiply panics: %v", filepath.Base(path), bit, off, panicked)
				case bad:
					wrong++
				}
			}
		}
		t.Logf("%s: %d mutants, %d decode, %d wrong product, %d panic, %d oversized", filepath.Base(path), mutants, decoded, wrong, panics, oversized)
	}
}

// multiplyMutant multiplies a decoded plan once on random values of its
// ring and reports a panic, or whether it returned a product other than
// MulReference's. A multiply that fails with an error is neither.
func multiplyMutant(q *Prepared) (panicked any, wrong bool) {
	defer func() { panicked = recover() }()
	r, inst := q.inner.R, q.inner.Inst
	a, b := matrix.Random(inst.Ahat, r, 1), matrix.Random(inst.Bhat, r, 2)
	got, _, err := q.Multiply(a, b)
	return nil, err == nil && !matrix.Equal(got, matrix.MulReference(a, b, inst.Xhat))
}
