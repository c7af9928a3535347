// Package dist executes compiled plans over real sockets: a mesh of worker
// processes, each owning the stores of the nodes assigned to its rank, walks
// one shared plan in lockstep and exchanges every round's real messages as
// value-only binary frames over TCP (docs/DIST.md). The package provides the
// Mesh transport (the lbm.Transport backend), the worker process loop, and
// the coordinator that partitions a job across workers and merges the
// partial results.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"lbmm/internal/lbm"
)

// maxFrameBytes bounds a single frame of either kind. A round frame carries
// at most one payload per plan node; anything larger than this is a corrupt
// or hostile length, not a real message batch.
const maxFrameBytes = 64 << 20

// maxHelloBytes bounds the hello frame, the only frame a worker reads
// before it has checked the peer's token: a kind, a job id, a rank and the
// token itself fit in a fraction of this.
const maxHelloBytes = 4 << 10

// The once-per-job frames (hello, job, result) are length-prefixed gob: a
// 4-byte big-endian payload length followed by one gob-encoded value,
// encoded with a fresh encoder per frame so a frame is self-contained and a
// reader never depends on stream history. The per-round frames of a running
// mesh are not gob; see roundHeaderBytes in mesh.go and docs/DIST.md for
// both layouts.

// writeFrame writes one gob frame to w.
func writeFrame(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("dist: encode frame: %w", err)
	}
	if buf.Len() > maxFrameBytes {
		return fmt.Errorf("dist: frame of %d bytes exceeds the %d-byte limit", buf.Len(), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame reads one gob frame of at most limit bytes from r into v. The
// body buffer grows as bytes actually arrive, never to the claimed length up
// front: a length prefix costs its sender the bytes it promises.
func readFrame(r io.Reader, v any, limit int) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if n > int64(limit) {
		return fmt.Errorf("dist: frame length %d exceeds the %d-byte limit", n, limit)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := gob.NewDecoder(&body).Decode(v); err != nil {
		return fmt.Errorf("dist: decode frame: %w", err)
	}
	return nil
}

// helloFrame is the first frame on every inbound worker connection; Kind
// routes the connection to the job handler ("job", from a coordinator) or
// parks it for a running job's mesh ("peer", from a fellow worker). Token
// is the fleet's shared secret when the worker demands one
// (WorkerOptions.AuthToken): a mismatch rejects the connection before any
// job or peer state is touched.
type helloFrame struct {
	Kind  string
	Job   string
	Rank  int
	Token string
}

// wireVal is one sparse-matrix entry on the wire (values are ring.Value =
// float64 for every built-in ring).
type wireVal struct {
	I, J int32
	V    float64
}

// jobFrame assigns one worker its rank in a distributed multiplication. The
// plan ships as a core.Prepared envelope — Prepared holds its checksummed
// flat bytes, opaque to this gob frame — addressed by its content
// fingerprint: a worker holding Fingerprint in its plan cache skips the
// envelope decode (and a coordinator that knows its workers are warm may
// omit the envelope entirely). Values ship as Lanes, a lanePayload encoded
// once by the coordinator: rank frames differ only in Rank, so the lane
// values — by far the largest part of the frame — are serialized a single
// time and the same byte slice is copied into every rank's frame instead of
// being gob-walked per rank. Peers holds every worker's dialable address,
// indexed by rank; Table, when non-empty, is the explicit node→rank
// partition every participant must share (empty = the modulo map).
type jobFrame struct {
	Job         string
	Rank        int
	Workers     int
	Peers       []string
	Table       []uint16
	Ring        string
	N           int
	Fingerprint string
	Prepared    []byte
	Lanes       []byte
}

// lanePayload is the per-lane value sets of a job: A[l] and B[l] are lane l
// of a batched multiplication (one lane is the scalar run). It travels
// inside jobFrame.Lanes as its own gob payload so the coordinator encodes
// it exactly once per run, not once per rank.
type lanePayload struct {
	A, B [][]wireVal
}

// encodeLanes serializes the lane values once for all ranks.
func encodeLanes(a, b [][]wireVal) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&lanePayload{A: a, B: b}); err != nil {
		return nil, fmt.Errorf("dist: encode lanes: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeLanes unpacks a jobFrame's lane payload.
func decodeLanes(p []byte) (a, b [][]wireVal, err error) {
	var lp lanePayload
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&lp); err != nil {
		return nil, nil, fmt.Errorf("dist: decode lanes: %w", err)
	}
	return lp.A, lp.B, nil
}

// resultFrame is a worker's reply to its jobFrame: the output entries its
// rank owns (lane for lane), its partition of the run statistics, and its
// transport + plan-cache counters. A typed fault travels as Fault
// (provenance intact for the chaos differential); any other failure as Err.
type resultFrame struct {
	Job      string
	Rank     int
	X        [][]wireVal
	Stats    lbm.Stats
	Counters map[string]int64
	Fault    *lbm.ErrFault
	Err      string
}
