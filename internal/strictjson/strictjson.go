// Package strictjson is a single-pass JSON scanner for request documents of
// a known, narrow shape. It never decodes a document it is unsure about:
// every method reports false as soon as the input leaves the shape its
// caller expects, and the caller then decodes the whole document with
// encoding/json instead, so error texts stay encoding/json's. What a caller
// accepts through it must therefore be valid JSON that encoding/json
// decodes to the same values; the differential fuzz targets of its callers
// check that.
//
// Plain strings (printable ASCII, no escapes) are returned as substrings of
// the source, so a decoded name costs no allocation.
package strictjson

import "strconv"

// maxDepth bounds the nesting Value walks before it declines. It is far
// below encoding/json's own limit (10000), so everything deeper is left to
// encoding/json, which reports it.
const maxDepth = 64

// Scanner walks src from pos.
type Scanner struct {
	src string
	pos int
}

// New returns a scanner at the start of src.
func New(src string) *Scanner { return &Scanner{src: src} }

// space skips JSON whitespace.
func (s *Scanner) space() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// Next skips whitespace and consumes c if it comes next.
func (s *Scanner) Next(c byte) bool {
	s.space()
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// End reports whether only whitespace is left.
func (s *Scanner) End() bool {
	s.space()
	return s.pos == len(s.src)
}

// Plain consumes a string of printable ASCII without escapes and returns
// its contents, which are exactly what encoding/json decodes it to.
func (s *Scanner) Plain() (string, bool) {
	if !s.Next('"') {
		return "", false
	}
	for j := s.pos; j < len(s.src); j++ {
		switch c := s.src[j]; {
		case c == '"':
			v := s.src[s.pos:j]
			s.pos = j + 1
			return v, true
		case c < ' ' || c == '\\' || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// Key consumes what precedes the next member value of an object: the
// opening brace when first is true, else the separating comma, then a plain
// key and its colon. done reports that the object closed instead.
func (s *Scanner) Key(first bool) (key string, done, ok bool) {
	if first && !s.Next('{') {
		return "", false, false
	}
	if s.Next('}') {
		return "", true, true
	}
	if !first && !s.Next(',') {
		return "", false, false
	}
	key, ok = s.Plain()
	return key, false, ok && s.Next(':')
}

// Elem consumes what precedes the next element of an array: the opening
// bracket when first is true, else the separating comma. done reports that
// the array closed instead.
func (s *Scanner) Elem(first bool) (done, ok bool) {
	if first && !s.Next('[') {
		return false, false
	}
	if s.Next(']') {
		return true, true
	}
	return false, first || s.Next(',')
}

// Int consumes a decimal integer, -?(0|[1-9][0-9]*), that fits a signed
// integer of the given bit size, 32 or 64; encoding/json decodes it to the
// same value in an integer field of that size, and rejects every other
// number there.
func (s *Scanner) Int(bitSize int) (int64, bool) {
	s.space()
	start := s.pos
	if s.pos < len(s.src) && s.src[s.pos] == '-' {
		s.pos++
	}
	first := s.pos
	if !s.digits() || s.src[first] == '0' && s.pos-first > 1 {
		return 0, false
	}
	if s.pos-first > 9 { // nine digits fit 32 bits; more may not fit bitSize
		v, err := strconv.ParseInt(s.src[start:s.pos], 10, bitSize)
		return v, err == nil
	}
	var v int64
	for i := first; i < s.pos; i++ {
		v = v*10 + int64(s.src[i]-'0')
	}
	if first > start {
		v = -v
	}
	return v, true
}

// Bool consumes true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.space()
	if s.literal("true") {
		return true, true
	}
	return false, s.literal("false")
}

// Value consumes one JSON value of any kind, checking its syntax as
// encoding/json's scanner does, and returns where its bytes start and end
// (surrounding whitespace excluded).
func (s *Scanner) Value() (start, end int, ok bool) {
	s.space()
	start = s.pos
	ok = s.value(0)
	return start, s.pos, ok
}

func (s *Scanner) value(depth int) bool {
	s.space()
	if s.pos >= len(s.src) {
		return false
	}
	switch c := s.src[s.pos]; {
	case c == '{' || c == '[':
		if depth == maxDepth {
			return false
		}
		s.pos++
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if s.Next(closer) {
			return true
		}
		for {
			if c == '{' && (!s.str() || !s.Next(':')) {
				return false
			}
			if !s.value(depth + 1) {
				return false
			}
			if s.Next(closer) {
				return true
			}
			if !s.Next(',') {
				return false
			}
		}
	case c == '"':
		return s.str()
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return false
}

// str consumes any string token JSON allows: bytes from 0x20 up (invalid
// UTF-8 included, as encoding/json's scanner allows) and the escapes \" \\
// \/ \b \f \n \r \t and \uXXXX.
func (s *Scanner) str() bool {
	if !s.Next('"') {
		return false
	}
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		s.pos++
		switch {
		case c == '"':
			return true
		case c < ' ':
			return false
		case c == '\\':
			if s.pos >= len(s.src) {
				return false
			}
			e := s.src[s.pos]
			s.pos++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if s.pos+4 > len(s.src) {
					return false
				}
				for _, h := range []byte(s.src[s.pos : s.pos+4]) {
					if !(h >= '0' && h <= '9' || h >= 'a' && h <= 'f' || h >= 'A' && h <= 'F') {
						return false
					}
				}
				s.pos += 4
			default:
				return false
			}
		}
	}
	return false
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *Scanner) number() bool {
	if s.pos < len(s.src) && s.src[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(s.src) && s.src[s.pos] == '0':
		s.pos++
	case !s.digits():
		return false
	}
	if s.pos < len(s.src) && s.src[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			return false
		}
	}
	if s.pos < len(s.src) && (s.src[s.pos] == 'e' || s.src[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.src) && (s.src[s.pos] == '+' || s.src[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			return false
		}
	}
	return true
}

// digits consumes one or more decimal digits.
func (s *Scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.src) && s.src[s.pos] >= '0' && s.src[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// literal consumes the keyword lit.
func (s *Scanner) literal(lit string) bool {
	if len(s.src)-s.pos < len(lit) || s.src[s.pos:s.pos+len(lit)] != lit {
		return false
	}
	s.pos += len(lit)
	return true
}
