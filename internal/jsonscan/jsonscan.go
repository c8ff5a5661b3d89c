// Package jsonscan scans the plain subset of JSON that the request
// decoders accept on their one-pass fast paths: objects, arrays,
// strings without escapes, and unsigned decimal integers, with JSON
// whitespace between tokens. Every method reports false on anything
// else — escapes, null, true, false, signs, fractions, exponents,
// control bytes or invalid UTF-8 inside strings, nesting deeper than
// maxDepth — and the caller then decodes the same bytes with
// encoding/json. A string's contents are therefore exactly its bytes
// between the quotes, as encoding/json would decode them.
package jsonscan

import (
	"strconv"
	"unicode/utf8"
)

// maxDepth bounds the nesting Skip accepts, and so its recursion; a
// problem object nests three deep.
const maxDepth = 8

// maxDigits keeps every accepted integer inside int: below 1e18 where
// int has 64 bits, below 1e9 where it has 32.
const maxDigits = 9 + 9*(strconv.IntSize/64)

// Scanner reads plain JSON tokens from Data starting at Pos.
type Scanner struct {
	Data []byte
	Pos  int
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) Peek() byte {
	if s.Pos < len(s.Data) && s.Data[s.Pos] > ' ' {
		return s.Data[s.Pos]
	}
	return s.skipSpace()
}

func (s *Scanner) skipSpace() byte {
	data, i := s.Data, s.Pos
	for ; i < len(data); i++ {
		if c := data[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			s.Pos = i
			return c
		}
	}
	s.Pos = i
	return 0
}

// Byte skips whitespace and consumes c, reporting whether it was next.
func (s *Scanner) Byte(c byte) bool {
	if s.Pos < len(s.Data) && s.Data[s.Pos] == c {
		s.Pos++
		return true
	}
	if s.skipSpace() != c || s.Pos == len(s.Data) {
		return false
	}
	s.Pos++
	return true
}

// End skips whitespace and reports whether the input is exhausted.
func (s *Scanner) End() bool {
	s.Peek()
	return s.Pos == len(s.Data)
}

// String consumes a plain string and returns the bounds of its
// contents in Data.
func (s *Scanner) String() (start, end int, ok bool) {
	if !s.Byte('"') {
		return 0, 0, false
	}
	data := s.Data
	start = s.Pos
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] >= utf8.RuneSelf {
		// Rare: finish the scan byte by byte, then check the encoding.
		for i < len(data) && (plainByte[data[i]] || data[i] >= utf8.RuneSelf) {
			i++
		}
		if i < len(data) && data[i] == '"' && !utf8.Valid(data[start:i]) {
			return 0, 0, false
		}
	}
	if i == len(data) || data[i] != '"' {
		return 0, 0, false
	}
	s.Pos = i + 1
	return start, i, true
}

// plainByte marks the ASCII bytes a plain string holds as they are:
// all but control bytes, the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Uint consumes an unsigned decimal integer.
func (s *Scanner) Uint() (int, bool) {
	s.Peek()
	start := s.Pos
	for s.Pos < len(s.Data) && s.Data[s.Pos] >= '0' && s.Data[s.Pos] <= '9' {
		s.Pos++
	}
	return Uint(s.Data[start:s.Pos])
}

// Uint parses t, all of it, as an unsigned decimal integer of at most
// maxDigits digits with no leading zero: the integers every decoder
// reads the same way.
func Uint(t []byte) (int, bool) {
	if len(t) == 0 || len(t) > maxDigits || (t[0] == '0' && len(t) > 1) {
		return 0, false
	}
	n := 0
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Object consumes an object, calling field with the bounds of each
// key's contents and the scanner before that key's value, which field
// must consume.
func (s *Scanner) Object(field func(keyStart, keyEnd int) bool) bool {
	if !s.Byte('{') {
		return false
	}
	if s.Byte('}') {
		return true
	}
	for {
		ks, ke, ok := s.String()
		if !ok || !s.Byte(':') || !field(ks, ke) {
			return false
		}
		if s.Byte('}') {
			return true
		}
		if !s.Byte(',') {
			return false
		}
	}
}

// Array consumes an array, calling elem before each element, which
// elem must consume.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Byte('[') {
		return false
	}
	if s.Byte(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.Byte(']') {
			return true
		}
		if !s.Byte(',') {
			return false
		}
	}
}

// Skip consumes one plain value of any kind.
func (s *Scanner) Skip() bool { return s.skip(maxDepth) }

func (s *Scanner) skip(depth int) bool {
	switch s.Peek() {
	case '"':
		_, _, ok := s.String()
		return ok
	case '{':
		return depth > 0 && s.Object(func(int, int) bool { return s.skip(depth - 1) })
	case '[':
		return depth > 0 && s.Array(func() bool { return s.skip(depth - 1) })
	default:
		_, ok := s.Uint()
		return ok
	}
}
