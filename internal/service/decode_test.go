package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/jsonscan"
	"repro/internal/lcl/lcltest"
	"repro/internal/problems"
)

// testModes are the mode names of the default registry.
var testModes = DefaultRegistry().Names()

// referenceDecode is the encoding/json decoding of a /v1/classify body.
func referenceDecode(body []byte) (Request, error) {
	var wr wireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
		return Request{}, fmt.Errorf("invalid JSON: %v", err)
	}
	return decodeRequest(&wr)
}

// codecBodies returns classify bodies for the battery in every
// lcl-based mode, in the shape clients send: the codec's problem
// encoding and the mode's parameter.
func codecBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, p := range append(problems.All(2), problems.All(3)...) {
		raw, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, body := range []map[string]any{
			{"mode": ModeCycles, "problem": json.RawMessage(raw)},
			{"mode": ModeTrees, "problem": json.RawMessage(raw), "max_levels": 2},
			{"mode": ModeSynthesize, "problem": json.RawMessage(raw), "max_radius": 1},
			{"mode": ModeGrid, "problem": json.RawMessage(raw), "dims": 2},
			{"mode": "future-mode", "problem": json.RawMessage(raw)},
		} {
			b, err := json.Marshal(body)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestScanRequestAcceptsCodecBodies: every body in the codec shape
// takes the one-pass path and decodes as encoding/json decodes it.
func TestScanRequestAcceptsCodecBodies(t *testing.T) {
	for _, body := range codecBodies(t) {
		sc := jsonscan.Scanner{Data: body}
		got, ok := scanRequest(&sc, testModes, nil)
		if !ok || !sc.End() {
			t.Fatalf("fast path declined %s", body)
		}
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRequest(&got, &want) {
			t.Fatalf("fast path %+v, reference %+v", got, want)
		}
	}
}

// TestInternMode: a registered mode is the registry's own string, and
// any other mode is a copy that later writes to the body cannot change.
func TestInternMode(t *testing.T) {
	for _, m := range testModes {
		b := []byte(m)
		if got := internMode(b, testModes); got != m || unsafe.StringData(got) != unsafe.StringData(m) {
			t.Errorf("internMode(%q) is not the registered name", m)
		}
	}
	b := []byte("future-mode")
	got := internMode(b, testModes)
	b[0] = 'X'
	if got != "future-mode" {
		t.Errorf("internMode returned %q, which shares the input bytes", got)
	}
}

func sameRequest(a, b *Request) bool {
	return a.Mode == b.Mode && a.MaxLevels == b.MaxLevels && a.MaxRadius == b.MaxRadius &&
		a.Dims == b.Dims && reflect.DeepEqual(a.Rooted, b.Rooted) && lcltest.SameProblem(a.Problem, b.Problem)
}

// FuzzDecodeClassifyRequest: on any body, decodeClassify and the
// encoding/json decoding both fail with the same error or both succeed
// with the same request.
func FuzzDecodeClassifyRequest(f *testing.F) {
	for _, body := range codecBodies(f) {
		f.Add(body)
	}
	for _, row := range pinnedRows() {
		f.Add([]byte(row.body))
	}
	for _, s := range []string{
		`{"mode":"cycles","rooted":{"name":"r","delta":2,"labels":["a"],"configs":[]}}`,
		`{"mode":"cycles","problem":null}`,
		`{"mode":"cycles","mode":"trees","problem":{}}`,
		`{"mode":"trees","max_levels":-1,"problem":{}}`,
		`{"mode":"trees","max_levels":1.0,"problem":{}}`,
		`{"mode":"trees","max_levels":1e1,"problem":{}}`,
		`{"mode":"trees","max_levels":01,"problem":{}}`,
		`{"mode":"trees","extra":true}`,
		` { "mode" : "cycles" } `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeClassify(body, testModes)
		want, wantErr := referenceDecode(body)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decodeClassify error %v, reference error %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", gotErr, wantErr)
			}
		case !sameRequest(&got, &want):
			t.Fatalf("decodeClassify %+v, reference %+v", got, want)
		}
	})
}

var decodedRequest Request

// BenchmarkDecodeClassifyRequest decodes a k=3 cycle classify body with
// the one-pass decoder and with encoding/json, as Go's encoder writes it
// and with the problem's input label escaped ("\u00b7", as Python's
// json.dumps writes it by default), which the one-pass decoder declines.
func BenchmarkDecodeClassifyRequest(b *testing.B) {
	raw, err := json.Marshal(problems.Coloring(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	plain, err := json.Marshal(map[string]any{"mode": ModeCycles, "problem": json.RawMessage(raw)})
	if err != nil {
		b.Fatal(err)
	}
	escaped := bytes.ReplaceAll(plain, []byte("·"), []byte(`\u00b7`))
	sc := jsonscan.Scanner{Data: escaped}
	if _, ok := scanRequest(&sc, testModes, nil); ok || bytes.Equal(plain, escaped) {
		b.Fatal("the escaped body takes the fast path")
	}
	for _, input := range []struct {
		name string
		body []byte
	}{{"plain", plain}, {"escaped", escaped}} {
		for _, dec := range []struct {
			name string
			fn   func([]byte) (Request, error)
		}{
			{"one-pass", func(body []byte) (Request, error) { return decodeClassify(body, testModes) }},
			{"reference", referenceDecode},
		} {
			b.Run(input.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if decodedRequest, err = dec.fn(input.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
