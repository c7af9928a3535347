package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// traceText runs lbmm trace -format text with the given ring and returns
// what it wrote.
func traceText(t *testing.T, alg, wl string, n, d int, ringName string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "trace.txt")
	if err := runTrace(n, d, alg, wl, ringName, "text", out); err != nil {
		t.Fatalf("trace -ring %q: %v", ringName, err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestTraceHonoursRing checks that trace runs over the ring -ring names:
// over GF(p), Theorem 4.2's phase-1 batches on blocks run Strassen, so the
// trace reports Strassen clusters; with no -ring the trace is the counting
// ring's, byte for byte.
func TestTraceHonoursRing(t *testing.T) {
	gfp := traceText(t, "theorem42", "blocks", 32, 4, "gfp")
	m := regexp.MustCompile(`strassen_clusters=(\d+)`).FindSubmatch(gfp)
	if m == nil {
		t.Fatalf("no strassen_clusters in the gfp trace:\n%s", gfp)
	}
	if c, _ := strconv.Atoi(string(m[1])); c == 0 {
		t.Fatalf("the gfp trace reports no Strassen clusters:\n%s", gfp)
	}
	if def, counting := traceText(t, "theorem42", "blocks", 32, 4, ""), traceText(t, "theorem42", "blocks", 32, 4, "counting"); !bytes.Equal(def, counting) {
		t.Fatalf("the default trace differs from -ring counting's")
	}
	if err := runTrace(32, 4, "theorem42", "blocks", "nosuchring", "text", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Fatalf("an unknown ring was accepted")
	}
}
