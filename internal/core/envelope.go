package core

import (
	"errors"
	"fmt"
	"io"

	"lbmm/internal/algo"
	"lbmm/internal/lbm"
)

// PreparedFormatVersion is the one format version of a serialized prepared
// plan: the envelope header carries it, and it covers every byte of the
// body (the core metadata here, algo's snapshot, and lbm's program with its
// compiled plans). Bump it on any change to what
// any of those put/get pairs list; readers reject other versions with
// ErrEnvelopeVersion, so a store populated by one build is never
// misinterpreted by another. Version 1 was the gob generation; version 2 had
// no trivial plan, wrote a fewtri job as one list of nine plans where version
// 3 writes its input and output chains apart, and repeated the plan's name.
// Version 3 gave every support cell a load ref; version 4 gives one only to
// the live cells, those on a triangle, and adds each node's count of dead
// cells. Version 5 adds each phase-1 batch's cluster count, triangle count
// and cluster volume, which its trace span reports. Version 6 drops what
// the decoder derives: the arena sizes, each plan's per-node slot counts,
// per-round message counts and OpSub flag, the classification and the
// second copy of d. Version 7 writes the phase-1 batches, the staging sweep
// and the job as one lbm.Program of steps, where version 6 wrote a batch
// list, a sweep and a job each in its own layout.
const PreparedFormatVersion = 7

// preparedMagic opens every envelope (the layout is in internal/lbm/wire.go
// and docs/PLANSTORE.md).
const preparedMagic = "lbmmprep"

// ErrEnvelope reports a prepared-plan envelope that is structurally invalid:
// wrong magic, wrong length or checksum, truncated body, or inner state that
// fails validation. Store readers treat it as "this entry is damaged" —
// quarantine and recompile, never serve.
var ErrEnvelope = errors.New("core: invalid prepared-plan envelope")

// ErrEnvelopeVersion reports an envelope written under a different format
// version. It is distinct from ErrEnvelope because the entry is not damaged
// — it is simply from another build generation — but the remedy is the
// same: recompile from structure.
var ErrEnvelopeVersion = errors.New("core: prepared-plan envelope version mismatch")

// Encode writes the prepared multiplication as one checksummed flat
// envelope; encoding the same plan twice gives identical bytes. Only the
// compiled execution state is serialized; a Prepared restored from the
// stream serves compiled multiplies identically but has no map-engine form
// (see algo.ErrNoMapForm).
func (p *Prepared) Encode(w io.Writer) error {
	if p == nil || p.inner == nil {
		return fmt.Errorf("core: nothing to encode")
	}
	ww := lbm.NewWireWriter(preparedMagic, PreparedFormatVersion)
	// Algorithm is the requested algorithm — fingerprint input, see
	// Prepared.Algorithm. D, Classes and Band are not written: D is the
	// inner plan's d, and the reader classifies the decoded supports.
	ww.String(p.Algorithm)
	if err := p.inner.EncodeCompiled(ww); err != nil {
		return fmt.Errorf("core: encode prepared: %w", err)
	}
	env, err := ww.Bytes()
	if err != nil {
		return fmt.Errorf("core: encode prepared: %w", err)
	}
	_, err = w.Write(env)
	return err
}

// DecodePrepared restores a Prepared from a stream written by Encode,
// reading at most lbm.MaxWireBytes. Any structural damage — bad magic, a
// length or checksum that does not match, a truncated slab, inner
// validation failure (algo.DecodeCompiledPrepared says what is checked),
// an algorithm name that disagrees with the plan — returns an error
// wrapping ErrEnvelope; an intact header of another version returns one
// wrapping ErrEnvelopeVersion. Callers (the plan store) quarantine on the
// former and silently recompile on either.
func DecodePrepared(r io.Reader) (*Prepared, error) {
	rd, err := lbm.ReadWire(r, preparedMagic, PreparedFormatVersion)
	if errors.Is(err, lbm.ErrWireVersion) {
		return nil, fmt.Errorf("%w: %w", ErrEnvelopeVersion, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	p := &Prepared{Algorithm: rd.String()}
	p.inner, err = algo.DecodeCompiledPrepared(rd)
	// Close on every path: it hands the body buffer back to its pool.
	if cerr := rd.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	switch p.Algorithm {
	case "auto", "trivial", "lemma31", "theorem42":
	default:
		return nil, fmt.Errorf("%w: algorithm %q", ErrEnvelope, p.Algorithm)
	}
	if p.Algorithm != "auto" && p.Algorithm != p.Resolved() {
		return nil, fmt.Errorf("%w: algorithm %q runs a %s plan", ErrEnvelope, p.Algorithm, p.Resolved())
	}
	p.D = p.inner.Inst.D
	p.Classes[0], p.Classes[1], p.Classes[2] = p.inner.Inst.Classify()
	p.Band = Classify(p.Classes[0], p.Classes[1], p.Classes[2])
	return p, nil
}

// Fingerprint recomputes the content address of the prepared structure —
// the same key Fingerprint(ahat, bhat, xhat, opts) produced when the plan
// was first prepared. Store readers compare it against the file name to
// detect entries that decode cleanly but were stored under the wrong key.
func (p *Prepared) Fingerprint() (string, error) {
	if p == nil || p.inner == nil {
		return "", fmt.Errorf("core: no prepared structure to fingerprint")
	}
	inst := p.inner.Inst
	return Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, Options{
		Ring:      p.inner.R,
		D:         p.D,
		Algorithm: p.Algorithm,
	})
}
