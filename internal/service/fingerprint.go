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
// scanner over the bytes, the same ParseWireMultiply, the same
// Sparse.Support — so the routed fingerprint and the served one cannot
// disagree, and a body in row-major ascending order costs one linear pass per
// stage.
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
		return structureFingerprint(&req)
	case "/v1/multiply/batch":
		var req wireMultiplyBatchRequest
		if err := ScanDocument(body, req.Scan); err != nil {
			return "", fmt.Errorf("bad request body: %w", err)
		}
		if len(req.Lanes) == 0 {
			return "", fmt.Errorf("batch multiply needs lanes")
		}
		return structureFingerprint(&wireMultiplyRequest{
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
		supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
		if err != nil {
			return "", err
		}
		return core.Fingerprint(supports[0], supports[1], supports[2],
			core.Options{Ring: ringSR, D: req.D, Algorithm: req.Algorithm})
	}
	return "", fmt.Errorf("no fingerprint for path %q", path)
}

// structureFingerprint fingerprints a value-carrying request the way
// Server.submit keys it: the structure is (A.Support(), B.Support(), Xhat) of
// the request ParseWireMultiply builds, so a duplicate cell or an explicit
// zero routes exactly as it is served.
func structureFingerprint(wm *wireMultiplyRequest) (string, error) {
	req, err := ParseWireMultiply(wm)
	if err != nil {
		return "", err
	}
	return core.Fingerprint(req.A.Support(), req.B.Support(), req.Xhat, req.Options)
}
