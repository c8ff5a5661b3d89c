package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/decide"
	"repro/internal/obs"
	"repro/internal/problems"
	"repro/internal/rooted"
)

// wireResponse is the encoding/json form of one classify reply item.
// json.Encoder over it is the oracle the append encoder is held to, and
// tests decode replies into it.
type wireResponse struct {
	Problem     string          `json:"problem,omitempty"`
	Mode        string          `json:"mode"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	CacheHit    bool            `json:"cache_hit"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	Sealed      bool            `json:"sealed,omitempty"`
	Class       string          `json:"class,omitempty"`
	Detail      json.RawMessage `json:"detail,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// wireBatchResponse is the encoding/json form of a batch reply.
type wireBatchResponse struct {
	Results []*wireResponse `json:"results"`
	Deduped int             `json:"deduped,omitempty"`
}

// encodeReference renders wr as json.Encoder does: compact, HTML
// escaped, with a trailing newline.
func encodeReference(t testing.TB, wr *wireResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(wr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceResult is the oracle for writeResult.
func referenceResult(t testing.TB, name string, resp *Response) []byte {
	t.Helper()
	wr := wireResponse{
		Problem:     name,
		Mode:        resp.Mode,
		Fingerprint: obs.Hex16(resp.Fingerprint),
		CacheHit:    resp.CacheHit,
		Coalesced:   resp.Coalesced,
		Sealed:      resp.Sealed,
		Class:       resp.Class.String(),
	}
	if resp.Detail != nil {
		raw, err := json.Marshal(resp.Detail)
		if err != nil {
			t.Fatal(err)
		}
		wr.Detail = raw
	}
	return encodeReference(t, &wr)
}

// referenceError is the oracle for writeError.
func referenceError(t testing.TB, name, mode string, err error) []byte {
	t.Helper()
	return encodeReference(t, &wireResponse{Problem: name, Mode: mode, Error: err.Error()})
}

// noteDetail is a detail type outside the service's own, which the
// encoder renders through json.Marshal.
type noteDetail struct {
	Note string `json:"note"`
}

// fuzzClasses are the lattice points a fuzzed response draws from.
var fuzzClasses = []decide.Class{
	decide.Unsolvable, decide.Constant, decide.LogStar, decide.Log,
	decide.NRoot(2), decide.NRoot(3), decide.Linear, decide.Unknown,
}

// fuzzDetail builds the detail of the given kind from fuzzed values:
// every service detail type, both encoding/json fallbacks, or none.
// BadInput is nil, empty or non-empty as bad says.
func fuzzDetail(kind byte, s string, n int, flag bool, bad []byte) any {
	switch kind % 7 {
	case 1:
		return &cyclesDetail{Class: s, Period: n, Witness: strings.Repeat(s, int(kind/7%3))}
	case 2:
		return &treesDetail{Verdict: s, Constant: flag, LowerBound: !flag, Level: n}
	case 3:
		d := &pathsDetail{SolvableAllInputs: flag}
		if len(bad) > 0 {
			d.BadInput = make([]int, 0, len(bad)-1)
			for _, x := range bad[1:] {
				d.BadInput = append(d.BadInput, int(x)-128)
			}
		}
		return d
	case 4:
		return &synthDetail{Found: flag, Radius: n}
	case 5:
		return &rooted.Verdict{Class: fuzzClasses[uint(n)%uint(len(fuzzClasses))], SolvableEverywhere: flag, Radius: n, MaxRadius: n / 2}
	case 6:
		return &noteDetail{Note: s}
	}
	return nil
}

// FuzzReplyEncoding holds the append encoder to the json.Encoder oracle
// byte for byte, over arbitrary names, modes and detail strings (HTML
// characters, control bytes, invalid UTF-8, U+2028/2029, Θ), every flag
// combination, and every detail type at its omitempty edges.
func FuzzReplyEncoding(f *testing.F) {
	for _, s := range []string{"", "3-coloring", "a<b>&c", "tab\there\nline\r\f\b\x00\x1f\x7f", "bad\xff\xfeutf8", "ls\u2028ps\u2029", "Θ(log* n)", `q"uo\te`} {
		for kind := byte(0); kind < 14; kind++ {
			f.Add(s, "cycles", s, kind, byte(kind), uint64(kind)<<59|0xabc, kind%3, []byte{0, 7, 200})
		}
	}
	f.Add("", "", "", byte(3), byte(0), uint64(0), byte(0), []byte{})
	f.Add("x", "paths-inputs", "", byte(3), byte(1), uint64(1), byte(0), []byte{9})
	f.Fuzz(func(t *testing.T, name, mode, s string, kind, flags byte, fp uint64, n byte, bad []byte) {
		resp := &Response{
			Mode:        mode,
			Fingerprint: fp,
			CacheHit:    flags&1 != 0,
			Coalesced:   flags&2 != 0,
			Sealed:      flags&4 != 0,
			Class:       fuzzClasses[int(flags>>3)%len(fuzzClasses)],
			Detail:      fuzzDetail(kind, s, int(n)-int(flags), flags&8 != 0, bad),
		}
		be := getEncoder()
		defer be.release()
		if err := be.writeResult(name, resp); err != nil {
			t.Fatal(err)
		}
		if want := referenceResult(t, name, resp); !bytes.Equal(be.buf, want) {
			t.Fatalf("writeResult:\n got %q\nwant %q", be.buf, want)
		}
		be.buf = be.buf[:0]
		err := errors.New(s)
		be.writeError(name, mode, err)
		if want := referenceError(t, name, mode, err); !bytes.Equal(be.buf, want) {
			t.Fatalf("writeError:\n got %q\nwant %q", be.buf, want)
		}
	})
}

// TestHTTPEscapedNameReply: a problem name that arrives escaped takes
// the encoding/json decoder, and the reply carries it as the oracle
// writes it.
func TestHTTPEscapedNameReply(t *testing.T) {
	raw, err := problems.Coloring(3, 2).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var named map[string]json.RawMessage
	if err := json.Unmarshal(raw, &named); err != nil {
		t.Fatal(err)
	}
	named["name"] = json.RawMessage(`"a\u003cb\u2028"`)
	problem, err := json.Marshal(named)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"mode":"cycles","problem":` + string(problem) + `}`
	if !strings.Contains(body, `"name":"a\u003cb\u2028"`) {
		t.Fatalf("body does not carry the escaped name: %s", body)
	}
	for _, route := range []string{"/v1/classify", "/v1/classify/batch"} {
		e := New(Config{Workers: 1})
		req := body
		if route == "/v1/classify/batch" {
			req = `{"requests":[` + body + `]}`
		}
		rec := httptest.NewRecorder()
		NewHandler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(req)))
		e.Close()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body)
		}
		item := rec.Body.Bytes()
		if route == "/v1/classify/batch" {
			item = bytes.TrimSuffix(bytes.TrimPrefix(item, []byte(`{"results":[`)), []byte("]}\n"))
		}
		var wr wireResponse
		if err := json.Unmarshal(item, &wr); err != nil {
			t.Fatalf("%s: %v: %s", route, err, item)
		}
		if wr.Problem != "a<b\u2028" || wr.Class != "Θ(log* n)" {
			t.Fatalf("%s: decoded reply %+v", route, wr)
		}
		if want := encodeReference(t, &wr); !bytes.Equal(item, want) {
			t.Errorf("%s: reply\n got %s\nwant %s", route, item, want)
		}
	}
}
