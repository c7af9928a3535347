package service

import (
	"errors"
	"fmt"

	"lbmm/internal/core"
)

// ErrBadRequest marks a fingerprinting failure caused by the request
// itself — malformed or truncated JSON, invalid entries, a missing lane, an
// unknown ring, or a path without a fingerprint schema. Routers test for it
// with errors.Is and fall through to local handling, where the HTTP layer
// produces its canonical 400; a fingerprint is never computed from a body
// that failed to validate, so a damaged request cannot route to the wrong
// shard.
var ErrBadRequest = errors.New("service: unfingerprintable request")

// RequestFingerprint computes the plan fingerprint a server would use for
// the body of a serving-API request, without compiling anything. This is what
// the shard tier routes by. It is the handler's own front half — the same
// scanner over the bytes and the same listing (ListWire) — hashed: the
// listing's SHA-256 is the fingerprint the served plan carries, so the
// routed fingerprint and the served one cannot disagree, and a body in
// row-major ascending order is listed in one pass with no matrix or support
// built.
//
// path selects the wire schema: "/v1/multiply", "/v1/multiply/batch"
// (fingerprinted by lane 0 — the handler enforces that all lanes share it)
// or "/v1/prepare". Bodies that fail to decode or validate return an error;
// routers should fall through to local handling, where the HTTP layer
// produces its usual 400.
func RequestFingerprint(path string, body []byte) (fp string, err error) {
	// Every failure is the request's fault: tag the whole surface so a
	// router's errors.Is check can't miss a path.
	defer func() {
		if err != nil && !errors.Is(err, ErrBadRequest) {
			err = fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}()
	switch path {
	case "/v1/multiply":
		var req wireMultiplyRequest
		if err := ScanDocument(body, req.Scan); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		return listedFingerprint(&req)
	case "/v1/multiply/batch":
		var req wireMultiplyBatchRequest
		if err := ScanDocument(body, req.Scan); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		if len(req.Lanes) == 0 {
			return "", fmt.Errorf("batch multiply needs lanes")
		}
		return listedFingerprint(&wireMultiplyRequest{
			N: req.N, Ring: req.Ring, Algorithm: req.Algorithm, D: req.D,
			A: req.Lanes[0].A, B: req.Lanes[0].B, Xhat: req.Xhat,
		})
	case "/v1/prepare":
		var req wirePrepareRequest
		if err := ScanDocument(body, req.Scan); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		ringSR, err := resolveRing(req.Ring)
		if err != nil {
			return "", err
		}
		l := core.Listing{N: req.N}
		for _, m := range []struct {
			pos  []wirePos
			what string
			list *core.RowList
		}{{req.Ahat, "ahat", &l.A}, {req.Bhat, "bhat", &l.B}, {req.Xhat, "xhat", &l.X}} {
			if err := listPositions(req.N, m.pos, m.what, m.list); err != nil {
				return "", err
			}
		}
		return l.Fingerprint(core.Options{Ring: ringSR, D: req.D, Algorithm: req.Algorithm}), nil
	}
	return "", fmt.Errorf("no fingerprint for path %q", path)
}

// listedFingerprint fingerprints a value-carrying request the way
// Server.resolve keys a miss: the fingerprint of the listing ListWire
// gives, so a duplicate cell or an explicit zero routes exactly as it is
// served.
func listedFingerprint(wm *wireMultiplyRequest) (string, error) {
	var vr ValueRequest
	if err := ListWire(&vr, wm); err != nil {
		return "", err
	}
	return vr.Fingerprint(), nil
}
