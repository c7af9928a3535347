package service

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner is the one decoder of request bytes: a single-pass cursor over a
// JSON document with a primitive per token kind and a grammar function per
// request kind. It validates syntax completely as it goes, matches object
// keys exactly (any other key is an error), parses numbers bit-identically to
// strconv.ParseFloat and copies everything it returns out of the input, so
// the caller may reuse the buffer as soon as a scan ends.
//
// Deliberately stricter than encoding/json into the same structs: a key that
// matches only case-insensitively is unknown; null is accepted where an
// array belongs (Go clients marshal a nil slice that way) and nowhere else;
// an entry or position with the wrong number of elements is an error; bytes
// after the top-level value are an error.
type Scanner struct {
	buf []byte
	pos int
}

// ScanDocument runs grammar over body and requires that nothing but white
// space follows the value it consumed.
func ScanDocument(body []byte, grammar func(*Scanner) error) error {
	s := Scanner{buf: body}
	if err := grammar(&s); err != nil {
		return err
	}
	s.ws()
	if s.pos < len(s.buf) {
		return s.errf("unexpected %q after the top-level value", s.buf[s.pos])
	}
	return nil
}

// DecodeWireMultiply scans body as one multiply payload: what the
// /v1/multiply handler, the stream read loop and RequestFingerprint run, and
// what json.Unmarshal into a WireMultiply runs after its own validation.
func DecodeWireMultiply(body []byte, wm *WireMultiply) error {
	return ScanDocument(body, wm.Scan)
}

// The request structs unmarshal through their grammar, so encoding/json
// callers and the handlers accept exactly the same bodies.

func (w *wireMultiplyRequest) UnmarshalJSON(b []byte) error { return DecodeWireMultiply(b, w) }

func (w *wireMultiplyBatchRequest) UnmarshalJSON(b []byte) error { return ScanDocument(b, w.Scan) }

func (w *wirePrepareRequest) UnmarshalJSON(b []byte) error { return ScanDocument(b, w.Scan) }

func (w *wireClassifyRequest) UnmarshalJSON(b []byte) error { return ScanDocument(b, w.Scan) }

// ---------------------------------------------------------------------------
// grammars

// Scan is the grammar of one multiply payload object.
func (w *wireMultiplyRequest) Scan(s *Scanner) error {
	return s.Object(func(key []byte) (err error) {
		switch string(key) {
		case "n":
			w.N, err = s.integer()
		case "ring":
			w.Ring, err = s.String()
		case "algorithm":
			w.Algorithm, err = s.String()
		case "d":
			w.D, err = s.integer()
		case "a":
			w.A, err = s.entries()
		case "b":
			w.B, err = s.entries()
		case "xhat":
			w.Xhat, err = s.positions()
		case "trace":
			w.Trace, err = s.Bool()
		default:
			err = s.UnknownKey(key)
		}
		return err
	})
}

func (w *wireMultiplyBatchRequest) Scan(s *Scanner) error {
	return s.Object(func(key []byte) (err error) {
		switch string(key) {
		case "n":
			w.N, err = s.integer()
		case "ring":
			w.Ring, err = s.String()
		case "algorithm":
			w.Algorithm, err = s.String()
		case "d":
			w.D, err = s.integer()
		case "lanes":
			w.Lanes, err = s.lanes()
		case "xhat":
			w.Xhat, err = s.positions()
		case "trace":
			w.Trace, err = s.Bool()
		default:
			err = s.UnknownKey(key)
		}
		return err
	})
}

func (s *Scanner) lanes() ([]wireValueLane, error) {
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := []wireValueLane{}
	for i := 0; ; i++ {
		if more, err := s.elem(i, ']'); err != nil || !more {
			return out, err
		}
		var lane wireValueLane
		err := s.Object(func(key []byte) (err error) {
			switch string(key) {
			case "a":
				lane.A, err = s.entries()
			case "b":
				lane.B, err = s.entries()
			default:
				err = s.UnknownKey(key)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, lane)
	}
}

func (w *wirePrepareRequest) Scan(s *Scanner) error {
	return s.Object(func(key []byte) (err error) {
		switch string(key) {
		case "ring":
			w.Ring, err = s.String()
		case "algorithm":
			w.Algorithm, err = s.String()
		default:
			err = s.structureKey(key, &w.N, &w.D, &w.Ahat, &w.Bhat, &w.Xhat)
		}
		return err
	})
}

func (w *wireClassifyRequest) Scan(s *Scanner) error {
	return s.Object(func(key []byte) error {
		return s.structureKey(key, &w.N, &w.D, &w.Ahat, &w.Bhat, &w.Xhat)
	})
}

// structureKey scans the value of one of the keys the structure-only
// requests share.
func (s *Scanner) structureKey(key []byte, n, d *int, ahat, bhat, xhat *[]wirePos) (err error) {
	switch string(key) {
	case "n":
		*n, err = s.integer()
	case "d":
		*d, err = s.integer()
	case "ahat":
		*ahat, err = s.positions()
	case "bhat":
		*bhat, err = s.positions()
	case "xhat":
		*xhat, err = s.positions()
	default:
		err = s.UnknownKey(key)
	}
	return err
}

// entries scans [[i, j, value], ...], or null for none, into a slice sized
// by a counting pre-pass.
func (s *Scanner) entries() ([]wireEntry, error) {
	const shape = "an entry is [i, j, value]"
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := make([]wireEntry, 0, s.countTuples(len("[0,0,0],")))
	for i := 0; ; i++ {
		if more, err := s.elem(i, ']'); err != nil || !more {
			return out, err
		}
		if err := s.expect('['); err != nil {
			return nil, err
		}
		var e wireEntry
		for k := range e {
			if k > 0 {
				if err := s.expect(','); err != nil {
					return nil, s.arity(shape, err)
				}
			}
			v, err := s.number()
			if err != nil {
				return nil, s.arity(shape, err)
			}
			e[k] = v
		}
		if err := s.expect(']'); err != nil {
			return nil, s.arity(shape, err)
		}
		out = append(out, e)
	}
}

// positions scans [[i, j], ...], or null for none; both indices must be
// written as integers.
func (s *Scanner) positions() ([]wirePos, error) {
	const shape = "a position is [i, j]"
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := make([]wirePos, 0, s.countTuples(len("[0,0],")))
	for i := 0; ; i++ {
		if more, err := s.elem(i, ']'); err != nil || !more {
			return out, err
		}
		if err := s.expect('['); err != nil {
			return nil, err
		}
		var p wirePos
		for k := range p {
			if k > 0 {
				if err := s.expect(','); err != nil {
					return nil, s.arity(shape, err)
				}
			}
			v, err := s.integer()
			if err != nil {
				return nil, s.arity(shape, err)
			}
			p[k] = v
		}
		if err := s.expect(']'); err != nil {
			return nil, s.arity(shape, err)
		}
		out = append(out, p)
	}
}

// arity names the shape of a tuple in the error of one that ended early (the
// cursor stands on its ']') or went on (on a ','); encoding/json would zero-
// fill the one and cut the other.
func (s *Scanner) arity(shape string, err error) error {
	if s.pos < len(s.buf) && (s.buf[s.pos] == ']' || s.buf[s.pos] == ',') {
		return fmt.Errorf("%s: %w", shape, err)
	}
	return err
}

// countTuples sizes the allocation for the array of number arrays the cursor
// stands in, without moving it: no string can occur inside one, so the next
// '"' (the following key) bounds it, and every '[' before that opens an
// element. On input the scan proper will reject the count may be too high,
// so it is capped by what the bytes counted over could hold at minBytes an
// element.
func (s *Scanner) countTuples(minBytes int) int {
	span := s.buf[s.pos:]
	if q := bytes.IndexByte(span, '"'); q >= 0 {
		span = span[:q]
	}
	return min(bytes.Count(span, []byte{'['}), len(span)/minBytes+1)
}

// ---------------------------------------------------------------------------
// primitives

// Object scans {"key": value, ...}, calling field with each decoded key and
// the cursor on its value; field must consume exactly that value. Keys may
// come in any order; a repeated key overwrites, as in encoding/json. key is
// only valid until field returns.
func (s *Scanner) Object(field func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if more, err := s.elem(i, '}'); err != nil || !more {
			return err
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

// UnknownKey is the error for an object key outside the schema.
func (s *Scanner) UnknownKey(key []byte) error {
	return s.errf("unknown field %.64q", key)
}

// String scans one string value.
func (s *Scanner) String() (string, error) {
	b, err := s.str()
	return string(b), err
}

// Bool scans true or false.
func (s *Scanner) Bool() (bool, error) {
	s.ws()
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	}
	return false, s.unexpected("true or false")
}

func (s *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{s.pos}, args...)...)
}

// unexpected is the error for a cursor that stands on something other than
// want, which names what the schema has there.
func (s *Scanner) unexpected(want string) error {
	switch {
	case s.pos >= len(s.buf):
		return s.errf("unexpected end of input, want %s", want)
	case bytes.HasPrefix(s.buf[s.pos:], []byte("null")):
		return s.errf("null where %s belongs", want)
	}
	return s.errf("unexpected %q, want %s", s.buf[s.pos], want)
}

func (s *Scanner) ws() {
	for s.pos < len(s.buf) {
		if c := s.buf[s.pos]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return
		}
		s.pos++
	}
}

// expect skips white space and consumes the one byte c.
func (s *Scanner) expect(c byte) error {
	if s.pos < len(s.buf) && s.buf[s.pos] == c { // compact JSON: nothing to skip
		s.pos++
		return nil
	}
	s.ws()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return nil
	}
	return s.unexpected(strconv.QuoteRune(rune(c)))
}

// elem steps to element i of an array or object that ends with the byte
// end, consuming the comma before every element but the first, and reports
// whether there is one; it consumes end when there is not.
func (s *Scanner) elem(i int, end byte) (bool, error) {
	s.ws()
	if s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == end:
			s.pos++
			return false, nil
		case i == 0:
			return true, nil
		case c == ',':
			s.pos++
			return true, nil
		}
	}
	return false, s.unexpected("',' or " + strconv.QuoteRune(rune(end)))
}

// literal consumes word if the input continues with it.
func (s *Scanner) literal(word string) bool {
	if len(s.buf)-s.pos >= len(word) && string(s.buf[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (s *Scanner) null() bool {
	s.ws()
	return s.literal("null")
}

// str scans one string and returns its decoded bytes: a view of the input
// when it is plain ASCII without escapes, a fresh slice otherwise.
func (s *Scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return s.strSlow(append([]byte(nil), s.buf[start:s.pos]...))
		case c < ' ':
			return nil, s.errf("control character in string")
		}
	}
	return nil, s.unexpected("'\"'")
}

// strSlow finishes a string that has escapes or non-ASCII bytes, appending
// to out what encoding/json would decode: escapes resolved, UTF-16 surrogate
// pairs joined, lone surrogates and invalid UTF-8 replaced by U+FFFD.
func (s *Scanner) strSlow(out []byte) ([]byte, error) {
	for s.pos < len(s.buf) {
		c := s.buf[s.pos]
		switch {
		case c == '"':
			s.pos++
			return out, nil
		case c < ' ':
			return nil, s.errf("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			s.pos++
		case c != '\\':
			r, size := utf8.DecodeRune(s.buf[s.pos:])
			out = utf8.AppendRune(out, r)
			s.pos += size
		default:
			s.pos++
			if s.pos >= len(s.buf) {
				return nil, s.unexpected("an escape")
			}
			esc := s.buf[s.pos]
			s.pos++
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := s.hex4(s.pos)
				if !ok {
					return nil, s.errf("invalid \\u escape")
				}
				s.pos += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone surrogate becomes
					// U+FFFD and what follows it is decoded on its own.
					pair := utf8.RuneError
					if low, ok := s.hex4(s.pos + 2); ok && s.buf[s.pos] == '\\' && s.buf[s.pos+1] == 'u' {
						pair = utf16.DecodeRune(r, low)
					}
					if pair != utf8.RuneError {
						s.pos += 6
					}
					r = pair
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, s.errf("invalid escape %q", esc)
			}
		}
	}
	return nil, s.unexpected("'\"'")
}

// hex4 reads the four hex digits of a \u escape at p.
func (s *Scanner) hex4(p int) (rune, bool) {
	if p+4 > len(s.buf) {
		return 0, false
	}
	var r rune
	for _, c := range s.buf[p : p+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the end of the run of digits starting at p.
func (s *Scanner) digits(p int) int {
	for p < len(s.buf) && isDigit(s.buf[p]) {
		p++
	}
	return p
}

// integer scans a number the schema types int: an optional minus and digits,
// no fraction, no exponent, within the range of int.
func (s *Scanner) integer() (int, error) {
	s.ws()
	start := s.pos
	p := start
	if p < len(s.buf) && s.buf[p] == '-' {
		p++
	}
	first, v := p, 0
	for ; p < len(s.buf) && isDigit(s.buf[p]); p++ {
		if p-first < 9 {
			v = v*10 + int(s.buf[p]-'0')
		}
	}
	if p == first {
		return 0, s.unexpected("an integer")
	}
	s.pos = p
	if p < len(s.buf) && (s.buf[p] == '.' || s.buf[p] == 'e' || s.buf[p] == 'E') {
		return 0, s.errf("number where an integer belongs")
	}
	if s.buf[first] == '0' && p-first > 1 {
		return 0, s.errf("number with a leading zero")
	}
	if first == start && p-first <= 9 {
		return v, nil
	}
	wide, err := strconv.ParseInt(string(s.buf[start:p]), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errf("integer %.32s out of range", s.buf[start:p])
	}
	return int(wide), nil
}

// number scans a JSON number to the float64 strconv.ParseFloat gives its
// token. Short runs of digits — every index and most values — take a digit
// loop, exact because integers below 1e15 are float64s.
func (s *Scanner) number() (float64, error) {
	s.ws()
	start := s.pos
	p := start
	var v uint64
	for p < len(s.buf) && p-start < 16 && isDigit(s.buf[p]) {
		v = v*10 + uint64(s.buf[p]-'0')
		p++
	}
	plain := p == len(s.buf) || !(isDigit(s.buf[p]) || s.buf[p] == '.' || s.buf[p] == 'e' || s.buf[p] == 'E')
	if n := p - start; plain && 0 < n && n < 16 && (n == 1 || s.buf[start] != '0') {
		s.pos = p
		return float64(v), nil
	}
	// The full grammar: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
	p = start
	if p < len(s.buf) && s.buf[p] == '-' {
		p++
	}
	switch {
	case p < len(s.buf) && s.buf[p] == '0':
		p++
	case p < len(s.buf) && isDigit(s.buf[p]):
		p = s.digits(p)
	default:
		return 0, s.unexpected("a number")
	}
	if p < len(s.buf) && s.buf[p] == '.' {
		end := s.digits(p + 1)
		if end == p+1 {
			s.pos = end
			return 0, s.unexpected("a digit after the decimal point")
		}
		p = end
	}
	if p < len(s.buf) && (s.buf[p] == 'e' || s.buf[p] == 'E') {
		p++
		if p < len(s.buf) && (s.buf[p] == '+' || s.buf[p] == '-') {
			p++
		}
		end := s.digits(p)
		if end == p {
			s.pos = end
			return 0, s.unexpected("a digit in the exponent")
		}
		p = end
	}
	f, err := strconv.ParseFloat(string(s.buf[start:p]), 64)
	if err != nil {
		return 0, s.errf("number %.32s out of range", s.buf[start:p])
	}
	s.pos = p
	return f, nil
}
