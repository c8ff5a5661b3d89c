package jsonscan

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestSkip: Skip accepts exactly the plain values — each of them valid
// JSON — and declines the rest of JSON and every invalid input.
func TestSkip(t *testing.T) {
	for _, tc := range []struct {
		in    string
		plain bool
	}{
		{`"a"`, true},
		{`""`, true},
		{`"·"`, true},
		{`0`, true},
		{strings.Repeat("9", maxDigits), true},
		{` { "a" : [ "b" , 1 ] , "c" : { } } `, true},
		{`[]`, true},
		{strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth), true},
		{strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1), false},
		{`"\u0041"`, false},
		{`"a\"b"`, false},
		{"\"a\tb\"", false},
		{"\"\xff\"", false},
		{"\"\xed\xa0\x80\"", false},
		{`null`, false},
		{`true`, false},
		{`-1`, false},
		{`1.5`, false},
		{`1e3`, false},
		{`01`, false},
		{strings.Repeat("9", maxDigits+1), false},
		{`{"a":1,}`, false},
		{`[1,]`, false},
		{`{"a" 1}`, false},
		{`{1:2}`, false},
		{`"abc`, false},
		{`[`, false},
		{``, false},
	} {
		s := Scanner{Data: []byte(tc.in)}
		got := s.Skip() && s.End()
		if got != tc.plain {
			t.Errorf("Skip(%q) = %v, want %v", tc.in, got, tc.plain)
		}
		if got && !json.Valid([]byte(tc.in)) {
			t.Errorf("Skip accepted invalid JSON %q", tc.in)
		}
	}
}

// TestString: a plain string's contents are its bytes between the
// quotes, which is what encoding/json decodes.
func TestString(t *testing.T) {
	for _, in := range []string{`"a b"`, `"·"`, `"c1 c2"`, `""`} {
		s := Scanner{Data: []byte(in)}
		a, b, ok := s.String()
		var want string
		if err := json.Unmarshal([]byte(in), &want); err != nil || !ok || string(s.Data[a:b]) != want {
			t.Errorf("String(%q) = %q, %v; encoding/json %q, %v", in, s.Data[a:b], ok, want, err)
		}
	}
}

// TestUint: every integer Uint accepts fits in int and reads as
// encoding/json reads it, on 32-bit platforms too.
func TestUint(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"0", true},
		{"7", true},
		{"10", true},
		{strings.Repeat("9", maxDigits), true},
		{"1" + strings.Repeat("0", maxDigits-1), true},
		{"1" + strings.Repeat("0", maxDigits), false},
		{"01", false},
		{"", false},
		{"-1", false},
		{"1a", false},
	} {
		n, ok := Uint([]byte(tc.in))
		if ok != tc.ok {
			t.Errorf("Uint(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		var want int
		if err := json.Unmarshal([]byte(tc.in), &want); err != nil || n != want || strconv.Itoa(n) != tc.in {
			t.Errorf("Uint(%q) = %d; encoding/json %d, %v", tc.in, n, want, err)
		}
	}
}
