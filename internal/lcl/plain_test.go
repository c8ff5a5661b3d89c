package lcl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/lcl"
	"repro/internal/lcl/lcltest"
	"repro/internal/problems"
)

// batteryEncodings returns the codec encoding of every battery problem
// at maximum degree 2 and 3.
func batteryEncodings(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, p := range append(problems.All(2), problems.All(3)...) {
		data, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// declinedVariants are inputs outside the plain shape that
// encoding/json decodes anyway (or rejects): the fast path must leave
// each of them to the reference decoder.
var declinedVariants = []string{
	`{"name":"esc","in_alphabet":["·"],"out_alphabet":["\u0041","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"Name":"cv","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":"unk","extra":1,"in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":"dup","name":"again","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":"dupdeg","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"],"2":["B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":null,"in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":"zero","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"02":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`{"name":"tail","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}} x`,
	`{"name":"both","in_alphabet":["·"],"out_alphabet":["A","B"],"node_constraints":{"2":["A A"],"02":["B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`,
	`null`,
	`{}`,
}

// TestParsePlainAcceptsBattery: every problem the codec writes takes
// the one-pass path and decodes to the reference decoder's problem.
func TestParsePlainAcceptsBattery(t *testing.T) {
	for _, data := range batteryEncodings(t) {
		got, ok := lcl.ParsePlain(data)
		if !ok {
			t.Fatalf("fast path declined a codec encoding:\n%s", data)
		}
		var want lcl.Problem
		if err := want.UnmarshalReference(data); err != nil {
			t.Fatal(err)
		}
		if !lcltest.SameProblem(got, &want) {
			t.Fatalf("%s: fast path %+v, reference %+v", want.Name, got, &want)
		}
	}
}

// TestParsePlainDeclines: inputs outside the plain shape never take the
// fast path.
func TestParsePlainDeclines(t *testing.T) {
	for _, s := range declinedVariants {
		if _, ok := lcl.ParsePlain([]byte(s)); ok {
			t.Errorf("fast path accepted %s", s)
		}
	}
}

// FuzzDecodeProblem: on any bytes, UnmarshalJSON and the encoding/json
// reference decoder both fail with the same error or both succeed with
// the same problem.
func FuzzDecodeProblem(f *testing.F) {
	for _, data := range batteryEncodings(f) {
		f.Add(data)
	}
	for _, s := range declinedVariants {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want lcl.Problem
		gotErr := got.UnmarshalJSON(data)
		wantErr := want.UnmarshalReference(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("UnmarshalJSON error %v, reference error %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", gotErr, wantErr)
			}
		case !lcltest.SameProblem(&got, &want):
			t.Fatalf("UnmarshalJSON %+v, reference %+v", &got, &want)
		}
	})
}

// BenchmarkUnmarshalJSON decodes a k=3 cycle problem with each decoder,
// as the codec writes it and with its input label escaped ("\u00b7"),
// which the one-pass decoder declines.
func BenchmarkUnmarshalJSON(b *testing.B) {
	plain, err := json.Marshal(problems.Coloring(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	escaped := bytes.ReplaceAll(plain, []byte("·"), []byte(`\u00b7`))
	if _, ok := lcl.ParsePlain(escaped); ok || bytes.Equal(plain, escaped) {
		b.Fatal("the escaped encoding takes the fast path")
	}
	for _, input := range []struct {
		name string
		data []byte
	}{{"plain", plain}, {"escaped", escaped}} {
		for _, dec := range []struct {
			name string
			fn   func(*lcl.Problem, []byte) error
		}{
			{"one-pass", (*lcl.Problem).UnmarshalJSON},
			{"reference", (*lcl.Problem).UnmarshalReference},
		} {
			b.Run(input.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var p lcl.Problem
					if err := dec.fn(&p, input.data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// largeAlphabets returns problems past the fast path's bounds: n output
// labels with n configurations all naming the first one, n degree keys,
// and n g keys over n input labels.
func largeAlphabets(n int) map[string][]byte {
	var labels, configs, degrees, g []string
	for i := range n {
		labels = append(labels, fmt.Sprintf("%q", fmt.Sprint("L", i)))
		configs = append(configs, `"L0 L0"`)
		degrees = append(degrees, fmt.Sprintf(`"%d":[]`, i+1))
		g = append(g, fmt.Sprintf(`"L%d":["L0"]`, i))
	}
	list := func(xs []string) string { return strings.Join(xs, ",") }
	return map[string][]byte{
		"out_alphabet": []byte(`{"name":"big","in_alphabet":["·"],"out_alphabet":[` + list(labels) +
			`],"node_constraints":{"2":[` + list(configs) + `]},"edge_constraints":[` + list(configs) + `],"g":{"·":["L0"]}}`),
		"node_constraints": []byte(`{"name":"deg","in_alphabet":["·"],"out_alphabet":["L0"],"node_constraints":{` +
			list(degrees) + `},"edge_constraints":["L0 L0"],"g":{"·":["L0"]}}`),
		"g": []byte(`{"name":"g","in_alphabet":[` + list(labels) + `],"out_alphabet":["L0"],"node_constraints":{"2":["L0 L0"]},` +
			`"edge_constraints":["L0 L0"],"g":{` + list(g) + `}}`),
	}
}

// TestDecodeLargeAlphabets: the one-pass decoder declines problems past
// its bounds, so decoding them stays linear — UnmarshalJSON costs about
// what the encoding/json decoder alone does — and agrees with the
// reference decoder.
func TestDecodeLargeAlphabets(t *testing.T) {
	for name, data := range largeAlphabets(20000) {
		if _, ok := lcl.ParsePlain(data); ok {
			t.Errorf("%s: fast path accepted %d bytes", name, len(data))
		}
		timed := func(fn func(*lcl.Problem, []byte) error) (lcl.Problem, error, time.Duration) {
			best := time.Duration(math.MaxInt64)
			var p lcl.Problem
			var err error
			for range 2 {
				p = lcl.Problem{}
				start := time.Now()
				err = fn(&p, data)
				best = min(best, time.Since(start))
			}
			return p, err, best
		}
		got, gotErr, gotTime := timed((*lcl.Problem).UnmarshalJSON)
		want, wantErr, wantTime := timed((*lcl.Problem).UnmarshalReference)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr == nil && !lcltest.SameProblem(&got, &want)) {
			t.Errorf("%s: UnmarshalJSON error %v, reference error %v", name, gotErr, wantErr)
		}
		if gotTime > 4*wantTime+50*time.Millisecond {
			t.Errorf("%s: UnmarshalJSON took %v, the reference decoder %v", name, gotTime, wantTime)
		}
	}
}
