package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decide"
	"repro/internal/lcl"
	"repro/internal/problems"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	e := New(Config{Workers: 4})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// classifyBody builds a /v1/classify payload with the problem embedded
// via the lcl codec.
func classifyBody(t *testing.T, mode string, p json.Marshaler) map[string]any {
	t.Helper()
	raw, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{"mode": mode, "problem": json.RawMessage(raw)}
}

// detailOf unmarshals a wire response's decider detail into a map.
func detailOf(t *testing.T, wr *wireResponse) map[string]any {
	t.Helper()
	if len(wr.Detail) == 0 {
		t.Fatalf("response has no detail: %+v", wr)
	}
	var m map[string]any
	if err := json.Unmarshal(wr.Detail, &m); err != nil {
		t.Fatalf("detail: %v", err)
	}
	return m
}

// TestHTTPEveryDeciderRoundTrips is the registry's transport contract,
// table-driven over every registered decider: POST /v1/classify serves
// it, the class field is a shared-lattice value, an identical second
// request hits the memo cache, and /statsz counts it in its own
// per-decider bucket.
func TestHTTPEveryDeciderRoundTrips(t *testing.T) {
	srv := newTestServer(t)
	c3raw, _ := problems.Coloring(3, 2).MarshalJSON()
	trivraw, _ := problems.Trivial(2).MarshalJSON()
	coraw, _ := problems.ConsistentOrientation().MarshalJSON()

	cases := []struct {
		mode      string
		body      map[string]any
		wantClass string
	}{
		{"cycles", map[string]any{"mode": "cycles", "problem": json.RawMessage(c3raw)}, "Θ(log* n)"},
		{"trees", map[string]any{"mode": "trees", "problem": json.RawMessage(trivraw)}, "O(1)"},
		{"paths-inputs", map[string]any{"mode": "paths-inputs", "problem": json.RawMessage(c3raw)}, "unknown"},
		{"synthesize", map[string]any{"mode": "synthesize", "problem": json.RawMessage(trivraw)}, "O(1)"},
		{"rooted", map[string]any{"mode": "rooted", "rooted": rootedTwoColoring()}, "unknown"},
		{"grid", map[string]any{"mode": "grid", "dims": 1, "problem": json.RawMessage(coraw)}, "O(1)"},
	}
	registered := DefaultRegistry().Names()
	if len(cases) != len(registered) {
		t.Fatalf("test table covers %d deciders, registry has %d (%v)", len(cases), len(registered), registered)
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.mode] = true
	}
	for _, name := range registered {
		if !covered[name] {
			t.Fatalf("registered decider %q missing from the table", name)
		}
	}

	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+"/v1/classify", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var wr wireResponse
			if err := json.Unmarshal(body, &wr); err != nil {
				t.Fatal(err)
			}
			if wr.Mode != tc.mode || wr.Error != "" {
				t.Fatalf("metadata: %s", body)
			}
			if _, err := decide.ParseClass(wr.Class); err != nil {
				t.Fatalf("class %q is not a lattice value: %v", wr.Class, err)
			}
			if wr.Class != tc.wantClass {
				t.Fatalf("class %q, want %q (%s)", wr.Class, tc.wantClass, body)
			}
			if wr.CacheHit {
				t.Fatalf("first request served from cache: %s", body)
			}
			detailOf(t, &wr) // every decider ships a detail object

			// Identical second request: memoized.
			_, body = postJSON(t, srv.URL+"/v1/classify", tc.body)
			if err := json.Unmarshal(body, &wr); err != nil {
				t.Fatal(err)
			}
			if !wr.CacheHit {
				t.Fatalf("repeat not served from cache: %s", body)
			}
			if wr.Class != tc.wantClass {
				t.Fatalf("cached class drifted: %s", body)
			}
		})
	}

	// Per-decider stats: every registered decider served exactly two
	// requests; nothing leaked into other buckets.
	var st Stats
	if resp := getJSON(t, srv.URL+"/statsz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	for _, name := range registered {
		if st.ByDecider[name] != 2 {
			t.Fatalf("decider %q served %d requests, want 2 (%+v)", name, st.ByDecider[name], st.ByDecider)
		}
	}
	if st.UnknownModeRejects != 0 {
		t.Fatalf("spurious unknown-mode rejects: %+v", st)
	}
}

func TestHTTPClassifyCycles(t *testing.T) {
	srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "cycles", problems.Coloring(3, 2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Class != "Θ(log* n)" {
		t.Fatalf("class %q, body %s", wr.Class, body)
	}
	if wr.Problem != "3-coloring" || len(wr.Fingerprint) != 16 {
		t.Fatalf("metadata: %s", body)
	}
	if d := detailOf(t, &wr); d["class"] != "Θ(log* n)" || d["witness"] == "" {
		t.Fatalf("cycles detail: %v", d)
	}
}

func TestHTTPClassifyTreesAndSynth(t *testing.T) {
	srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "trees", problems.Trivial(2)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if d := detailOf(t, &wr); d["constant"] != true {
		t.Fatalf("trees verdict: %s", body)
	}

	_, body = postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "synthesize", problems.Trivial(2)))
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if d := detailOf(t, &wr); d["found"] != true || d["radius"] != float64(0) {
		t.Fatalf("synth outcome: %s", body)
	}
}

// TestHTTPClassifyRootedAndGrid: the two new families, end to end with
// their native payloads.
func TestHTTPClassifyRootedAndGrid(t *testing.T) {
	srv := newTestServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/classify", map[string]any{
		"mode": "rooted", "rooted": rootedTwoColoring(), "max_radius": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rooted status %d: %s", resp.StatusCode, body)
	}
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Class != "unknown" || wr.Problem != "rooted-2col" {
		t.Fatalf("rooted response: %s", body)
	}
	if d := detailOf(t, &wr); d["solvable_everywhere"] != true || d["constant_anon"] != false {
		t.Fatalf("rooted detail: %v", d)
	}

	// Dim0Problem is the Θ(√n) landscape witness, served over the wire
	// with its shared-lattice spelling.
	dim0raw, _ := dim0WireProblem(t)
	resp, body = postJSON(t, srv.URL+"/v1/classify", map[string]any{
		"mode": "grid", "dims": 2, "problem": dim0raw,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Class != "Θ(n^{1/2})" {
		t.Fatalf("grid class %q: %s", wr.Class, body)
	}
	if d := detailOf(t, &wr); d["exact"] != true {
		t.Fatalf("grid detail: %v", d)
	}
}

// dim0WireProblem builds the 2-dim Dim0 problem through the lcl codec
// (mirrors grid.Dim0Problem without importing internal/grid, which
// would be an import cycle through the registry — service imports grid).
func dim0WireProblem(t *testing.T) (json.RawMessage, *lcl.Problem) {
	t.Helper()
	b := lcl.NewBuilder("grid-2d-dim0-2coloring", []string{"dir0", "dir1", "dir2", "dir3"}, []string{"c0", "c1", "x"})
	b.Node("c0", "c0", "x", "x")
	b.Node("c1", "c1", "x", "x")
	b.Edge("c0", "c1").Edge("x", "x")
	b.Allow("dir0", "c0", "c1").Allow("dir1", "c0", "c1")
	b.Allow("dir2", "x").Allow("dir3", "x")
	p := b.MustBuild()
	raw, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw, p
}

func TestHTTPClassifyErrors(t *testing.T) {
	srv := newTestServer(t)
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/classify", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Missing problem payload (neither lcl nor rooted).
	resp, body := postJSON(t, srv.URL+"/v1/classify", map[string]any{"mode": "cycles"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing problem: status %d, %s", resp.StatusCode, body)
	}
	// Semantically invalid: cycles on an input-labeled problem.
	inputful := lcl.NewBuilder("inputful", []string{"x", "y"}, []string{"A"}).
		Node("A", "A").Edge("A", "A").Allow("x", "A").Allow("y", "A").MustBuild()
	resp, body = postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "cycles", inputful))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("inputful cycles: status %d, %s", resp.StatusCode, body)
	}
	// Unknown mode.
	resp, body = postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "oracle", problems.Trivial(2)))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown mode: status %d, %s", resp.StatusCode, body)
	}
	// Wrong method.
	resp = getJSON(t, srv.URL+"/v1/classify", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: status %d", resp.StatusCode)
	}
}

func TestHTTPBatch(t *testing.T) {
	srv := newTestServer(t)
	c3, _ := problems.Coloring(3, 2).MarshalJSON()
	triv, _ := problems.Trivial(2).MarshalJSON()
	body := map[string]any{"requests": []map[string]any{
		{"mode": "cycles", "problem": json.RawMessage(c3)},
		{"mode": "cycles"}, // decode error: missing problem
		{"mode": "paths-inputs", "problem": json.RawMessage(triv)},
		{"mode": "cycles", "problem": json.RawMessage(c3)}, // duplicate
		{"mode": "rooted", "rooted": rootedTwoColoring()},  // mixed family
	}}
	resp, raw := postJSON(t, srv.URL+"/v1/classify/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out wireBatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 5 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Class != "Θ(log* n)" || out.Results[0].Error != "" {
		t.Fatalf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Fatalf("result 1 should carry a decode error: %+v", out.Results[1])
	}
	if d := detailOf(t, out.Results[2]); d["solvable_all_inputs"] != true {
		t.Fatalf("result 2: %+v", out.Results[2])
	}
	if out.Results[4].Error != "" || out.Results[4].Mode != "rooted" {
		t.Fatalf("result 4: %+v", out.Results[4])
	}
	// Exactly one of the two identical requests computed; the other was
	// served from cache or coalesced (scheduling decides which slot).
	computed := 0
	for _, i := range []int{0, 3} {
		if !out.Results[i].CacheHit && !out.Results[i].Coalesced {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d computations for duplicate batch entries: %+v / %+v", computed, out.Results[0], out.Results[3])
	}

	// Empty batch is rejected.
	resp, raw = postJSON(t, srv.URL+"/v1/classify/batch", map[string]any{"requests": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, %s", resp.StatusCode, raw)
	}
}

func TestHTTPCensus(t *testing.T) {
	srv := newTestServer(t)
	var wc wireCensus
	resp := getJSON(t, srv.URL+"/v1/census/2", &wc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if wc.K != 2 || !wc.Dedup || !wc.GapHolds {
		t.Fatalf("census header: %+v", wc)
	}
	if wc.TotalProblems != 64 {
		t.Fatalf("k=2 raw total %d, want 64", wc.TotalProblems)
	}
	if _, ok := wc.Classes["Θ(log* n)"]; ok {
		if wc.Classes["Θ(log* n)"].Raw != 0 {
			t.Fatalf("k=2 census has log* problems: %+v", wc.Classes)
		}
	}

	// dedup=false drops class-representative counts.
	resp = getJSON(t, srv.URL+"/v1/census/2?dedup=false", &wc)
	if resp.StatusCode != http.StatusOK || wc.Dedup {
		t.Fatalf("dedup=false: %d %+v", resp.StatusCode, wc)
	}

	for _, bad := range []string{"/v1/census/0", "/v1/census/9", "/v1/census/x", "/v1/census/2?dedup=maybe"} {
		resp := getJSON(t, srv.URL+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", bad, resp.StatusCode)
		}
	}
}

func TestHTTPHealthzStatsz(t *testing.T) {
	srv := newTestServer(t)
	var health map[string]string
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	// Drive one request so the counters move.
	postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "cycles", problems.Coloring(3, 2)))
	var st Stats
	if resp := getJSON(t, srv.URL+"/statsz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	if st.Requests == 0 || st.ByDecider["cycles"] == 0 || st.Workers != 4 {
		t.Fatalf("statsz: %+v", st)
	}
	if st.Cache.Puts == 0 {
		t.Fatalf("statsz cache: %+v", st.Cache)
	}
	if len(st.Deciders) == 0 {
		t.Fatalf("statsz deciders: %+v", st)
	}
}

// TestHTTPRoundTripThroughCodec: a problem marshaled by the codec, sent
// over the API, and classified equals the in-process classification —
// the wire format loses nothing the classifier needs.
func TestHTTPRoundTripThroughCodec(t *testing.T) {
	srv := newTestServer(t)
	for _, p := range problems.All(2) {
		if p.NumIn() != 1 {
			continue // cycles mode is input-free
		}
		e := New(Config{Workers: 1})
		want, err := e.Classify(Request{Problem: p, Mode: "cycles"})
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, raw := postJSON(t, srv.URL+"/v1/classify", classifyBody(t, "cycles", p))
		var wr wireResponse
		if err := json.Unmarshal(raw, &wr); err != nil {
			t.Fatal(err)
		}
		if wr.Class != want.Cycles().Class.String() {
			t.Fatalf("%s: API says %q, library says %q", p.Name, wr.Class, want.Cycles().Class)
		}
		if wr.Fingerprint != fmt.Sprintf("%016x", want.Fingerprint) {
			t.Fatalf("%s: fingerprint drift across the wire", p.Name)
		}
	}
}

// pinnedRows are the request bodies whose exact replies
// TestHTTPRepliesPinned holds to testdata/http_pinned.json. They cover
// decode failures and inputs that only the encoding/json decoder
// accepts (escaped names, case-variant keys, trailing bytes), and the
// rejected job submissions.
func pinnedRows() []struct{ route, name, body string } {
	const good = `{"name":"2col","in_alphabet":["·"],"out_alphabet":["A","B"],` +
		`"node_constraints":{"2":["A A","B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}`
	items := []struct{ name, body string }{
		{"malformed", `{"mode":"cycles","problem":{"name":`},
		{"unknown-label", `{"mode":"cycles","problem":{"name":"u","in_alphabet":["·"],"out_alphabet":["A","B"],` +
			`"node_constraints":{"2":["A Z"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}}`},
		{"wrong-size", `{"mode":"cycles","problem":{"name":"w","in_alphabet":["·"],"out_alphabet":["A","B"],` +
			`"node_constraints":{"2":["A A A"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}}`},
		{"missing-problem", `{"mode":"cycles"}`},
		{"wrong-type", `{"mode":"cycles","max_levels":"3","problem":` + good + `}`},
		{"escaped-label", `{"mode":"cycles","problem":{"name":"e\u0073c","in_alphabet":["\u00b7"],"out_alphabet":["\u0041","B"],` +
			`"node_constraints":{"2":["A A","B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}}`},
		{"case-variant-key", `{"Mode":"cycles","PROBLEM":{"Name":"cv","in_alphabet":["·"],"Out_Alphabet":["A","B"],` +
			`"node_constraints":{"2":["A A","B B"]},"edge_constraints":["A B"],"G":{"·":["A","B"]}}}`},
	}
	var rows []struct{ route, name, body string }
	for _, it := range items {
		rows = append(rows,
			struct{ route, name, body string }{"/v1/classify", it.name, it.body},
			struct{ route, name, body string }{"/v1/classify/batch", it.name, `{"requests":[` + it.body + `]}`})
	}
	ok := `{"mode":"cycles","problem":` + good + `}`
	const rootedOverCap = `{"mode":"rooted","max_radius":3,"rooted":{"name":"r2col","delta":2,"labels":["a","b"],` +
		`"configs":[{"parent":"a","children":["b","b"]},{"parent":"b","children":["a","a"]}]}}`
	return append(rows,
		struct{ route, name, body string }{"/v1/classify", "trailing-bytes", ok + ` x`},
		struct{ route, name, body string }{"/v1/classify/batch", "trailing-bytes", `{"requests":[` + ok + `]} x`},
		struct{ route, name, body string }{"/v1/classify/batch", "one-bad-item", `{"requests":[` + ok + `,` + items[1].body + `]}`},
		struct{ route, name, body string }{"/v1/jobs", "body-too-large", `{"type":"` + strings.Repeat("x", maxJobBody) + `"}`},
		struct{ route, name, body string }{"/v1/jobs", "unknown-field", `{"type":"census","k":1,"sizes":[64]}`},
		struct{ route, name, body string }{"/v1/jobs", "long-unknown-type", `{"type":"a` + strings.Repeat("é", 100) + `"}`},
		struct{ route, name, body string }{"/v1/classify", "rooted-radius-over-cap", rootedOverCap},
		struct{ route, name, body string }{"/v1/classify/batch", "rooted-radius-over-cap", `{"requests":[` + rootedOverCap + `]}`},
		struct{ route, name, body string }{"/v1/jobs", "rooted-census-radius-over-cap", `{"type":"rooted-census","delta":2,"k":1,"max_radius":3}`},
	)
}

// pinnedReply is one recorded reply of testdata/http_pinned.json.
type pinnedReply struct {
	Route  string `json:"route"`
	Name   string `json:"name"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// servePinned posts one pinned row to a fresh engine, so cache flags
// in the reply do not depend on row order.
func servePinned(route, body string) pinnedReply {
	e := New(Config{Workers: 1})
	defer e.Close()
	rec := httptest.NewRecorder()
	NewHandler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader([]byte(body))))
	return pinnedReply{Route: route, Status: rec.Code, Body: rec.Body.String()}
}

// TestHTTPRepliesPinned holds the status and exact body of every pinned
// row to testdata/http_pinned.json. The classify rows were recorded
// before the one-pass request decoder existed: error bodies come from
// the encoding/json path, and inputs the fast path declines still
// succeed. The job rows pin the submission route's bounds: an oversized
// body, an unknown field and a long unknown type. The last rows pin the
// rooted radius cap on both classify routes and on rooted census jobs.
func TestHTTPRepliesPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/http_pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []pinnedReply
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	rows := pinnedRows()
	if len(want) != len(rows) {
		t.Fatalf("pinned file has %d rows, the table %d", len(want), len(rows))
	}
	for i, row := range rows {
		got := servePinned(row.route, row.body)
		got.Name = row.name
		if got != want[i] {
			t.Errorf("%s %s:\n got  %d %q\n want %d %q", row.route, row.name, got.Status, got.Body, want[i].Status, want[i].Body)
		}
	}
}

// TestHTTPBodyLimits: a body one byte over its route's limit (1 MiB for
// /v1/classify, MaxBatch × 16 KiB for /v1/classify/batch) gets 413 with
// a JSON error, and a body exactly at the limit is served.
func TestHTTPBodyLimits(t *testing.T) {
	const item = `{"mode":"cycles","problem":{"name":"2col","in_alphabet":["·"],"out_alphabet":["A","B"],` +
		`"node_constraints":{"2":["A A","B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}}`
	e := New(Config{Workers: 1, MaxBatch: 2})
	defer e.Close()
	h := NewHandler(e)
	for _, tc := range []struct {
		route, prefix, suffix string
		limit                 int
	}{
		{"/v1/classify", item[:len(item)-1], "}", maxClassifyBody},
		{"/v1/classify/batch", `{"requests":[` + item, `]}`, 2 * maxBatchItemBody},
	} {
		for _, size := range []int{tc.limit, tc.limit + 1} {
			// JSON whitespace pads the body to size bytes.
			pad := strings.Repeat(" ", size-len(tc.prefix)-len(tc.suffix))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.route, strings.NewReader(tc.prefix+pad+tc.suffix)))
			if size == tc.limit {
				if rec.Code != http.StatusOK {
					t.Errorf("%s at the limit: status %d, body %s", tc.route, rec.Code, rec.Body)
				}
				continue
			}
			var reply map[string]string
			if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &reply) != nil || reply["error"] == "" {
				t.Errorf("%s over the limit: status %d, body %s", tc.route, rec.Code, rec.Body)
			}
		}
	}
}

// TestHTTPDeclaredLengthNotTrusted sends the batch route a short body
// that declares the route's whole limit, 64 MiB at the default MaxBatch:
// serving it must allocate about what the short body needs, not what it
// declares, so a client that stalls after its headers holds little
// memory.
func TestHTTPDeclaredLengthNotTrusted(t *testing.T) {
	const item = `{"mode":"cycles","problem":{"name":"2col","in_alphabet":["·"],"out_alphabet":["A","B"],` +
		`"node_constraints":{"2":["A A","B B"]},"edge_constraints":["A B"],"g":{"·":["A","B"]}}}`
	const body = `{"requests":[` + item + `]}`
	e := New(Config{Workers: 1})
	defer e.Close()
	h := NewHandler(e)
	limit := int64(e.maxBatch) * maxBatchItemBody
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", strings.NewReader(body))
		req.ContentLength = limit
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the engine and the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a %d-byte body declaring %d bytes allocated %d bytes", len(body), limit, got)
	}

	// The body buffer itself is sized by the bytes that arrived.
	req := httptest.NewRequest(http.MethodPost, "/v1/classify/batch", strings.NewReader(body))
	req.ContentLength = limit
	buf, ok := readBody(httptest.NewRecorder(), req, limit)
	if !ok || buf.String() != body {
		t.Fatalf("readBody = %q, %v", buf, ok)
	}
	if c := buf.Cap(); c > 2*(maxPooledBody+bytes.MinRead) {
		t.Errorf("buffer capacity %d for a %d-byte body", c, len(body))
	}
	putBody(buf)
}

// TestHTTPBodyReadDeadline: under a shortened body-read deadline, a client
// that sends its headers and part of its body, then stalls, gets 408 with
// a JSON error once the deadline passes; and a handler that runs past
// the deadline after reading its body keeps its request context, since
// the deadline is lifted once the body is in.
func TestHTTPBodyReadDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	e := New(Config{Workers: 1})
	defer e.Close()
	e.bodyTimeout = timeout

	t.Run("stalled-body", func(t *testing.T) {
		srv := httptest.NewServer(NewHandler(e))
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, "POST /v1/classify HTTP/1.1\r\nHost: test\r\n"+
			"Content-Type: application/json\r\nContent-Length: 200\r\n\r\n{\"mode\":"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no reply to a stalled body: %v", err)
		}
		defer resp.Body.Close()
		elapsed := time.Since(start)
		var reply map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestTimeout || reply["error"] != "request body not received in time" {
			t.Errorf("stalled body: status %d, reply %v", resp.StatusCode, reply)
		}
		if elapsed < timeout || elapsed > 5*time.Second {
			t.Errorf("stalled body answered after %v, deadline %v", elapsed, timeout)
		}
	})

	t.Run("deadline-lifted", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, ok := e.readTimedBody(w, r, maxJobBody)
			if !ok {
				return
			}
			putBody(body)
			time.Sleep(3 * timeout)
			if err := r.Context().Err(); err != nil {
				http.Error(w, "request context ended: "+err.Error(), http.StatusInternalServerError)
				return
			}
			io.WriteString(w, "ok")
		}))
		defer srv.Close()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(`{"mode":"cycles"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(got) != "ok" {
			t.Errorf("handler running past the body deadline: status %d, body %q", resp.StatusCode, got)
		}
	})
}

// TestHTTPConcurrentBodies serves warm requests on both classify routes
// from several goroutines at once: replies must match the sequential
// ones byte for byte, so nothing decoded from one request's pooled body
// buffer shows through in another's reply.
func TestHTTPConcurrentBodies(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	h := NewHandler(e)
	serve := func(route string, body []byte) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		return fmt.Sprintf("%d %s", rec.Code, rec.Body)
	}
	var bodies [][]byte
	for _, p := range append(problems.All(2), problems.All(3)...) {
		raw, err := json.Marshal(classifyBody(t, ModeCycles, p))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	batch := append([]byte(`{"requests":[`), bytes.Join(bodies, []byte(","))...)
	batch = append(batch, "]}"...)
	// The second sequential pass is the reference: every item is warm.
	want := map[string]string{}
	for pass := 0; pass < 2; pass++ {
		for _, b := range bodies {
			want[string(b)] = serve("/v1/classify", b)
		}
		want[string(batch)] = serve("/v1/classify/batch", batch)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, b := range bodies {
					if got := serve("/v1/classify", b); got != want[string(b)] {
						t.Errorf("concurrent reply %s, sequential %s", got, want[string(b)])
						return
					}
				}
				if got := serve("/v1/classify/batch", batch); got != want[string(batch)] {
					t.Errorf("concurrent batch reply differs:\n%s\n%s", got, want[string(batch)])
					return
				}
			}
		}()
	}
	wg.Wait()
}
