package service

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The encode-side twin of the Scanner: append functions that write the
// multiply wire shapes byte for byte as encoding/json writes them — the same
// field order and omitempty rules as the struct tags, the same float64
// formatting, HTML-escaped strings — without reflection. Every multiply
// response body and every stream frame is written through them. A NaN or ±Inf
// value, which JSON cannot carry, is refused with the *json.UnsupportedValueError
// encoding/json returns, and a refused value appends nothing: each appender
// returns its input unchanged with the error.

// MarshalJSON is the twin of UnmarshalJSON: encoding/json callers get the
// bytes AppendJSON writes, which are the ones its reflection would (strings
// stay HTML-escaped, also under an Encoder's SetEscapeHTML(false)). They are
// appended into a pooled buffer and returned as one exact-length copy; a NaN
// or ±Inf value is the *json.UnsupportedValueError AppendJSON returns, which
// encoding/json wraps in a *json.MarshalerError.
func (w *wireMultiplyRequest) MarshalJSON() ([]byte, error) {
	buf := appendPool.Get().(*[]byte)
	defer putAppendBuf(buf)
	var err error
	if *buf, err = w.AppendJSON((*buf)[:0]); err != nil {
		return nil, err
	}
	out := make([]byte, len(*buf))
	copy(out, *buf)
	return out, nil
}

// AppendJSON appends the multiply payload as one JSON object.
func (w *wireMultiplyRequest) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(w.N), 10)
	if w.Ring != "" {
		b = AppendString(append(b, `,"ring":`...), w.Ring)
	}
	if w.Algorithm != "" {
		b = AppendString(append(b, `,"algorithm":`...), w.Algorithm)
	}
	if w.D != 0 {
		b = strconv.AppendInt(append(b, `,"d":`...), int64(w.D), 10)
	}
	b, err := AppendEntries(append(b, `,"a":`...), w.A)
	if err == nil {
		b, err = AppendEntries(append(b, `,"b":`...), w.B)
	}
	if err != nil {
		return b[:start], err
	}
	b = appendPositions(append(b, `,"xhat":`...), w.Xhat)
	if w.Trace {
		b = append(b, `,"trace":true`...)
	}
	return append(b, '}'), nil
}

// AppendJSON appends the body of a successful /v1/multiply: the product
// entries, then the report's fields flattened into the same object.
func (r *wireMultiplyResponse) AppendJSON(b []byte) ([]byte, error) {
	return appendMultiplyBody(b, func(b []byte) ([]byte, error) { return AppendEntries(b, r.X) }, &r.wireMultiplyReport)
}

// appendMultiplyBody appends a /v1/multiply body whose entries x appends.
func appendMultiplyBody(b []byte, x func([]byte) ([]byte, error), report *wireMultiplyReport) ([]byte, error) {
	start := len(b)
	b, err := x(append(b, `{"x":`...))
	if err == nil {
		b, err = report.appendFields(append(b, ','))
	}
	if err != nil {
		return b[:start], err
	}
	return append(b, '}'), nil
}

// AppendJSON appends the body of a successful /v1/multiply/batch.
func (r *wireMultiplyBatchResponse) AppendJSON(b []byte) ([]byte, error) {
	return appendBatchBody(b, func(b []byte) ([]byte, error) {
		if r.Lanes == nil {
			return append(b, "null"...), nil
		}
		return appendLanes(b, len(r.Lanes), func(b []byte, l int) ([]byte, error) { return AppendEntries(b, r.Lanes[l]) })
	}, r.BatchLanes, &r.wireMultiplyReport)
}

// appendBatchBody appends a /v1/multiply/batch body whose lanes value
// lanes appends.
func appendBatchBody(b []byte, lanes func([]byte) ([]byte, error), batchLanes int, report *wireMultiplyReport) ([]byte, error) {
	start := len(b)
	b, err := lanes(append(b, `{"lanes":`...))
	if err == nil {
		b = strconv.AppendInt(append(b, `,"batch_lanes":`...), int64(batchLanes), 10)
		b, err = report.appendFields(append(b, ','))
	}
	if err != nil {
		return b[:start], err
	}
	return append(b, '}'), nil
}

// appendLanes appends k lanes as a JSON array, lane l's entries appended by
// lane.
func appendLanes(b []byte, k int, lane func([]byte, int) ([]byte, error)) ([]byte, error) {
	b = append(b, '[')
	for l := 0; l < k; l++ {
		if l > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = lane(b, l); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// AppendJSON appends the report as one JSON object (the report of a stream
// result frame).
func (r *wireMultiplyReport) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b, err := r.appendFields(append(b, '{'))
	if err != nil {
		return b[:start], err
	}
	return append(b, '}'), nil
}

// appendFields appends the report's members without braces, for the object
// that holds them; a non-nil Profile goes through json.Marshal.
func (r *wireMultiplyReport) appendFields(b []byte) ([]byte, error) {
	start := len(b)
	b = strconv.AppendInt(append(b, `"rounds":`...), int64(r.Rounds), 10)
	b = strconv.AppendInt(append(b, `,"phase1_rounds":`...), int64(r.Phase1Rounds), 10)
	b = strconv.AppendInt(append(b, `,"phase2_rounds":`...), int64(r.Phase2Rounds), 10)
	b = strconv.AppendInt(append(b, `,"messages":`...), r.Messages, 10)
	b = strconv.AppendInt(append(b, `,"peak_store":`...), int64(r.PeakStore), 10)
	b = AppendString(append(b, `,"algorithm":`...), r.Algorithm)
	b = append(b, `,"classes":[`...)
	for k, c := range r.Classes {
		if k > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, c)
	}
	b = AppendString(append(b, `],"band":`...), r.Band)
	b = strconv.AppendInt(append(b, `,"d":`...), int64(r.D), 10)
	b = AppendString(append(b, `,"fingerprint":`...), r.Fingerprint)
	b = AppendString(append(b, `,"cache":`...), r.Cache)
	if r.Profile != nil {
		p, err := json.Marshal(r.Profile)
		if err != nil {
			return b[:start], err
		}
		b = append(append(b, `,"profile":`...), p...)
	}
	return b, nil
}

// AppendEntries appends value cells as [[i,j,value],...], null for nil.
func AppendEntries(b []byte, es []WireEntry) ([]byte, error) {
	if es == nil {
		return append(b, "null"...), nil
	}
	start := len(b)
	b = append(b, '[')
	for k := range es {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c, v := range es[k] {
			if c > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendNumber(b, v); err != nil {
				return b[:start], err
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendPositions appends support positions as [[i,j],...], null for nil.
func appendPositions(b []byte, ps []WirePos) []byte {
	if ps == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for k, p := range ps {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '['), int64(p[0]), 10)
		b = strconv.AppendInt(append(b, ','), int64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// AppendString appends s as a JSON string. A string of printable ASCII that
// needs no escape is copied between quotes; anything else — quotes,
// backslashes, control bytes, the HTML-escaped <, > and &, non-ASCII and
// invalid UTF-8 — is left to encoding/json.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendNumber appends f as encoding/json does: the shortest representation
// that round-trips, in 'f' form, or 'e' form below 1e-6 or from 1e21 up with
// a one-digit negative exponent unpadded. Integral values under 1e15 are
// exact int64s, so they take strconv.AppendInt — all but -0, which prints
// its sign.
func appendNumber(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if -1e15 < f && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10), nil
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 → e-9
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
