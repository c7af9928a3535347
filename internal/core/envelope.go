package core

import (
	"errors"
	"fmt"
	"io"

	"lbmm/internal/algo"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
)

// PreparedFormatVersion is the one format version of a serialized prepared
// plan: the envelope header carries it, and it covers every byte of the
// body (the core metadata here, algo's snapshot, the dense, cluster and
// fewtri programs and lbm's compiled plans). Bump it on any change to what
// any of those put/get pairs list; readers reject other versions with
// ErrEnvelopeVersion, so a store populated by one build is never
// misinterpreted by another. Version 1 was the gob generation.
const PreparedFormatVersion = 2

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
	// Prepared.Algorithm. Classes and Band are derivable; the reader
	// re-derives them and insists the stored copy agrees.
	ww.String(p.Algorithm)
	ww.Int(p.D)
	for _, c := range p.Classes {
		ww.Int32(int32(c))
	}
	ww.Int32(int32(p.Band))
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
// validation failure, metadata that disagrees with the decoded structure —
// returns an error wrapping ErrEnvelope; an intact header of another
// version returns one wrapping ErrEnvelopeVersion. Callers (the plan store)
// quarantine on the former and silently recompile on either; a decoded plan
// is never served unchecked.
func DecodePrepared(r io.Reader) (*Prepared, error) {
	rd, err := lbm.ReadWire(r, preparedMagic, PreparedFormatVersion)
	if errors.Is(err, lbm.ErrWireVersion) {
		return nil, fmt.Errorf("%w: %w", ErrEnvelopeVersion, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	p := &Prepared{Algorithm: rd.String(), D: rd.Int()}
	var classes [3]matrix.Class
	for i := range classes {
		classes[i] = matrix.Class(rd.Int32())
	}
	band := Band(rd.Int32())
	if p.inner, err = algo.DecodeCompiledPrepared(rd); err == nil {
		err = rd.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	switch p.Algorithm {
	case "auto", "theorem42", "lemma31":
	default:
		return nil, fmt.Errorf("%w: algorithm %q", ErrEnvelope, p.Algorithm)
	}
	if p.D != p.inner.Inst.D {
		return nil, fmt.Errorf("%w: envelope d=%d but plan compiled for d=%d", ErrEnvelope, p.D, p.inner.Inst.D)
	}
	// Reclassify from the decoded supports rather than trusting the stored
	// bands: classification is cheap and derivable.
	p.Classes[0], p.Classes[1], p.Classes[2] = p.inner.Inst.Classify()
	p.Band = Classify(p.Classes[0], p.Classes[1], p.Classes[2])
	if p.Classes != classes || p.Band != band {
		return nil, fmt.Errorf("%w: stored classification %v/%v disagrees with structure %v/%v",
			ErrEnvelope, classes, band, p.Classes, p.Band)
	}
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
