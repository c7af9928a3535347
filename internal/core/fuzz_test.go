package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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
// valid envelope per plan shape of envShapes, a body cut in half, a slab
// length that exceeds the body, load refs with a gap in a node's slot
// prefix (loadSlotGap), a round index that runs past its plan's
// instructions, and each liveDamage to the live-cell accounting, all but
// the first resealed so they reach the body reader. The property: a decode ends in a typed error, or in a
// Prepared whose re-encoding decodes to the same plan — never a panic, and
// never more heap than a fixed multiple of the input.
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
