package strictjson

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestValueMatchesValid: Value followed by End takes exactly the documents
// json.Valid takes, for every JSON syntax rule, nesting up to maxDepth.
func TestValueMatchesValid(t *testing.T) {
	docs := []string{
		``, ` `, `null`, `nul`, `nulll`, `true`, `tru`, `false`, `fals`,
		`0`, `-0`, `01`, `-01`, `-`, `1.`, `1.5`, `.5`, `1e`, `1e+`, `1e-7`, `1E+07`, `-0.0e0`, `123456789012345678901234567890`,
		`""`, `"a"`, `"\"\\\/\b\f\n\r\t"`, `"é😀"`, `"\u12"`, `"\u12g4"`, `"\x"`, `"\'"`, "\"a\tb\"", "\"\x7f\xff\xfe\"", `"abc`, `"\`,
		`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[1,[2,[3]]]`, `[`, `]`,
		`{}`, `{ }`, `{"a":1}`, `{"a":1,}`, `{"a" 1}`, `{a:1}`, `{"a":}`, `{1:2}`, `{"a":{"b":[{}]}}`, `{"a":1}}`, `{"a":1`,
		" \t\r\n[1]\n", "\v[1]", "\xef\xbb\xbf[]",
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
	}
	for _, doc := range docs {
		s := New(doc)
		_, _, ok := s.Value()
		if got, want := ok && s.End(), json.Valid([]byte(doc)); got != want {
			t.Errorf("%q: Value+End = %v, json.Valid = %v", doc, got, want)
		}
	}
	// Deeper nesting is valid JSON that Value declines, leaving it to
	// encoding/json.
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	if _, _, ok := New(deep).Value(); ok {
		t.Errorf("Value took nesting deeper than %d", maxDepth)
	}
}

// TestValueBounds: Value reports the value's own bytes, without the
// whitespace around it.
func TestValueBounds(t *testing.T) {
	src := ` [ {"a" : [1, "x"]} , -2.5e3 ] `
	s := New(src)
	if !s.Next('[') {
		t.Fatal("no opening bracket")
	}
	for _, want := range []string{`{"a" : [1, "x"]}`, `-2.5e3`} {
		start, end, ok := s.Value()
		if !ok || src[start:end] != want {
			t.Fatalf("Value = %q, %v; want %q", src[start:end], ok, want)
		}
		s.Next(',')
	}
}

// TestIntMatchesEncodingJSON: Int followed by End takes exactly the JSON
// numbers encoding/json decodes into an integer field of the given size,
// to the same value, and declines every other value.
func TestIntMatchesEncodingJSON(t *testing.T) {
	numbers := []string{
		`0`, `-0`, `7`, `-7`, ` 42 `, `01`, `-01`, `1.0`, `1.5`, `1e3`, `1E+3`, `-0.0`,
		`999999999`, `-999999999`, `1000000000`, `-1000000000`,
		`2147483647`, `2147483648`, `-2147483648`, `-2147483649`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
		`123456789012345678901234567890`,
	}
	for _, doc := range numbers {
		for _, bits := range []int{32, 64} {
			s := New(doc)
			got, ok := s.Int(bits)
			ok = ok && s.End()
			var want int64
			var err error
			if bits == 32 {
				var v int32
				err = json.Unmarshal([]byte(doc), &v)
				want = int64(v)
			} else {
				err = json.Unmarshal([]byte(doc), &want)
			}
			if ok != (err == nil) || ok && got != want {
				t.Errorf("%q at %d bits: Int = %d, %v; encoding/json %d, %v", doc, bits, got, ok, want, err)
			}
		}
	}
	for _, doc := range []string{``, `-`, `+1`, `.5`, `"1"`, `null`, `true`, `[1]`} {
		if _, ok := New(doc).Int(64); ok {
			t.Errorf("Int took %q", doc)
		}
	}
}

// TestBool: Bool takes the two literals and nothing else.
func TestBool(t *testing.T) {
	for _, c := range []struct {
		doc  string
		want bool
	}{{`true`, true}, {` false `, false}} {
		s := New(c.doc)
		if got, ok := s.Bool(); !ok || !s.End() || got != c.want {
			t.Errorf("%q: Bool = %v, %v", c.doc, got, ok)
		}
	}
	for _, doc := range []string{``, `tru`, `False`, `"true"`, `1`, `null`} {
		if _, ok := New(doc).Bool(); ok {
			t.Errorf("Bool took %q", doc)
		}
	}
}
