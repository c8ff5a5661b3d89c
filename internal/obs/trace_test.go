package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// finishedTrace builds a finished trace with a given decider and total
// duration (duration is forced by back-dating the start).
func finishedTrace(id, decider string, dur time.Duration) *Trace {
	tr := NewTrace(id, "POST", "/v1/classify")
	tr.start = time.Now().Add(-dur)
	tr.SetDecider(decider)
	tr.Finish(200)
	return tr
}

// TestTraceSpanOrdering: spans recorded out of order come back sorted
// by start offset, and a span's offset/duration are consistent.
func TestTraceSpanOrdering(t *testing.T) {
	tr := NewTrace("", "POST", "/v1/classify")
	base := tr.start
	// Record in reverse start order: later stage first.
	tr.Record("compute", base.Add(2*time.Millisecond))
	tr.Record("fingerprint", base.Add(1*time.Millisecond))
	tr.Record("decode", base)
	tr.Finish(200)

	v := tr.View()
	var names []string
	for _, s := range v.Spans {
		names = append(names, s.Name)
	}
	want := []string{"decode", "fingerprint", "compute"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("span order = %v, want %v", names, want)
	}
	if v.Spans[0].StartMS != 0 {
		t.Errorf("first span start = %v, want 0", v.Spans[0].StartMS)
	}
	if v.Spans[2].StartMS < 2 {
		t.Errorf("compute start = %vms, want >= 2ms", v.Spans[2].StartMS)
	}
	if v.Status != 200 || v.DurationMS <= 0 {
		t.Errorf("finish not reflected: status=%d duration=%v", v.Status, v.DurationMS)
	}
}

// TestNilTrace: the whole trace API is nil-receiver safe.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Record("x", time.Now())
	tr.SetDecider("cycles")
	tr.Finish(200)
	if tr.ID() != "" {
		t.Error("nil trace ID must be empty")
	}
	var ring *TraceRing
	ring.Add(tr)
	if ring.Snapshot() != nil {
		t.Error("nil ring snapshot must be nil")
	}
}

// TestTraceRingOverflow: a full ring drops the oldest traces and
// Snapshot returns newest first.
func TestTraceRingOverflow(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		ring.Add(finishedTrace(fmt.Sprintf("trace-%02d", i), "cycles", time.Millisecond))
	}
	views := ring.Snapshot()
	if len(views) != 4 {
		t.Fatalf("snapshot size = %d, want 4", len(views))
	}
	for i, want := range []string{"trace-09", "trace-08", "trace-07", "trace-06"} {
		if views[i].ID != want {
			t.Errorf("views[%d].ID = %s, want %s", i, views[i].ID, want)
		}
	}
}

// TestTraceRingConcurrent: writers appending while readers snapshot.
// Under -race this pins the ring's lock-free claim; structurally, every
// snapshot is bounded by the capacity and contains only finished,
// non-nil views.
func TestTraceRingConcurrent(t *testing.T) {
	ring := NewTraceRing(32)
	const writers, perWriter, readers = 8, 500, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ring.Add(finishedTrace(fmt.Sprintf("w%d-%d", w, i), "cycles", time.Microsecond))
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				views := ring.Snapshot()
				if len(views) > 32 {
					t.Errorf("snapshot size %d exceeds capacity 32", len(views))
					return
				}
				for _, v := range views {
					if v.ID == "" || v.Status != 200 {
						t.Errorf("snapshot contains unfinished view %+v", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := ring.Snapshot(); len(got) != 32 {
		t.Errorf("final snapshot size = %d, want full ring of 32", len(got))
	}
}

// TestTracezFilters drives the /debug/tracez handler's decider, min_ms,
// and limit query parameters.
func TestTracezFilters(t *testing.T) {
	ring := NewTraceRing(16)
	ring.Add(finishedTrace("slow-cycles", "cycles", 50*time.Millisecond))
	ring.Add(finishedTrace("fast-cycles", "cycles", time.Millisecond))
	ring.Add(finishedTrace("slow-trees", "trees", 80*time.Millisecond))
	h := TracezHandler(ring)

	get := func(query string) tracezResponse {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/tracez"+query, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, rec.Code)
		}
		var out tracezResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return out
	}

	if out := get(""); out.Count != 3 {
		t.Errorf("unfiltered count = %d, want 3", out.Count)
	}
	out := get("?decider=cycles")
	if out.Count != 2 {
		t.Errorf("decider filter count = %d, want 2", out.Count)
	}
	for _, v := range out.Traces {
		if v.Decider != "cycles" {
			t.Errorf("decider filter leaked %s", v.ID)
		}
	}
	out = get("?min_ms=20")
	if out.Count != 2 {
		t.Errorf("min_ms filter count = %d, want 2", out.Count)
	}
	for _, v := range out.Traces {
		if v.DurationMS < 20 {
			t.Errorf("min_ms filter leaked %s (%vms)", v.ID, v.DurationMS)
		}
	}
	if out := get("?limit=1"); out.Count != 1 || out.Traces[0].ID != "slow-trees" {
		t.Errorf("limit=1 = %+v, want just the newest (slow-trees)", out.Traces)
	}
	req := httptest.NewRequest("GET", "/debug/tracez?min_ms=bogus", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad min_ms status = %d, want 400", rec.Code)
	}
}

// TestMiddleware checks the end-to-end request pipeline: request-ID
// minting and echo, metrics, and trace publication.
func TestMiddleware(t *testing.T) {
	set := NewSet()
	set.Logger = NopLogger()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := TraceFrom(r.Context())
		if tr == nil {
			t.Error("handler context missing trace")
		} else {
			start := time.Now()
			tr.Record("work", start)
			tr.SetDecider("cycles")
		}
		w.WriteHeader(http.StatusTeapot)
	})
	h := Middleware(inner, set)

	// Minted ID on a bare request.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/classify", nil))
	if rec.Header().Get("X-Request-Id") == "" {
		t.Error("middleware must mint an X-Request-Id")
	}
	// Caller-supplied ID is propagated.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/classify", nil)
	req.Header.Set("X-Request-Id", "caller-chosen-id")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-chosen-id" {
		t.Errorf("X-Request-Id = %q, want caller-chosen-id", got)
	}

	views := set.Traces.Snapshot()
	if len(views) != 2 {
		t.Fatalf("ring has %d traces, want 2", len(views))
	}
	newest := views[0]
	if newest.ID != "caller-chosen-id" || newest.Status != http.StatusTeapot ||
		newest.Decider != "cycles" || len(newest.Spans) != 1 || newest.Spans[0].Name != "work" {
		t.Errorf("trace view = %+v", newest)
	}

	var b strings.Builder
	if err := set.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `lcl_http_requests_total{method="POST",route="/v1/classify",status="418"} 2`) {
		t.Errorf("request counter missing:\n%s", out)
	}
	if !strings.Contains(out, `lcl_http_request_seconds_count{route="/v1/classify"} 2`) {
		t.Errorf("latency histogram missing:\n%s", out)
	}
	if !strings.Contains(out, "lcl_http_in_flight_requests 0") {
		t.Errorf("in-flight gauge should settle at 0:\n%s", out)
	}
}

// TestNormalizeRoute pins the bounded-cardinality route table.
func TestNormalizeRoute(t *testing.T) {
	cases := map[string]string{
		"/v1/classify":           "/v1/classify",
		"/v1/classify/batch":     "/v1/classify/batch",
		"/v1/census/3":           "/v1/census/{k}",
		"/v1/census/paths/2":     "/v1/census/paths/{k}",
		"/v1/jobs":               "/v1/jobs",
		"/v1/jobs/j000001":       "/v1/jobs/{id}",
		"/v1/jobs/j07/events":    "/v1/jobs/{id}/events",
		"/v1/proof/a1b2c3d4e5":   "/v1/proof/{fingerprint}",
		"/v1/admin/snapshot":     "/v1/admin/snapshot",
		"/healthz":               "/healthz",
		"/statsz":                "/statsz",
		"/metricsz":              "/metricsz",
		"/debug/tracez":          "/debug/tracez",
		"/totally/unknown/path":  "other",
		"/":                      "other",
		"/v1":                    "other",
		"/v1/jobs/a/b/events":    "other", // extra segment must not match {id}/events
		"/v1/census/3/extra":     "other",
		"/v1/proof/a/b":          "other",
		"/v1/classify/batch/own": "other",
	}
	for path, want := range cases {
		if got := NormalizeRoute(path); got != want {
			t.Errorf("NormalizeRoute(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestNormalizeRouteCardinality: high-cardinality request streams —
// per-job event streams, proof fingerprints, junk — must collapse onto
// a fixed label set, or every scrape grows with traffic.
func TestNormalizeRouteCardinality(t *testing.T) {
	labels := map[string]bool{}
	for i := 0; i < 1000; i++ {
		for _, path := range []string{
			fmt.Sprintf("/v1/jobs/j%06d", i),
			fmt.Sprintf("/v1/jobs/j%06d/events", i),
			fmt.Sprintf("/v1/proof/%08x", i*2654435761),
			fmt.Sprintf("/v1/census/%d", i),
			fmt.Sprintf("/v1/census/paths/%d", i),
			fmt.Sprintf("/junk/%d/deep/%d", i, i*7),
			fmt.Sprintf("/v1/%d", i),
		} {
			labels[NormalizeRoute(path)] = true
		}
	}
	want := map[string]bool{
		"/v1/jobs/{id}":           true,
		"/v1/jobs/{id}/events":    true,
		"/v1/proof/{fingerprint}": true,
		"/v1/census/{k}":          true,
		"/v1/census/paths/{k}":    true,
		"other":                   true,
	}
	if len(labels) != len(want) {
		t.Fatalf("7000 requests produced %d route labels %v, want exactly %v", len(labels), labels, want)
	}
	for l := range labels {
		if !want[l] {
			t.Errorf("unexpected route label %q", l)
		}
	}
}

// TestHex16MatchesSprintf: Hex16 is %016x, leading zeros included.
func TestHex16MatchesSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xf, 0x10, 1 << 60, 0x0123456789abcdef, 1<<64 - 1} {
		if got, want := Hex16(v), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("Hex16(%#x) = %q, want %q", v, got, want)
		}
	}
	if id := NewTraceID(); len(id) != 16 {
		t.Errorf("trace ID %q is not 16 digits", id)
	}
}

// pinnedTrace builds a finished trace with fixed times, so its views
// render to fixed bytes. Spans are added in the order given.
func pinnedTrace(spans ...Span) *Trace {
	tr := &Trace{
		id:      "00000000000000ab",
		method:  "POST",
		route:   "/v1/classify",
		start:   time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC),
		decider: "cycles",
		status:  200,
		dur:     1500 * time.Microsecond,
	}
	for _, s := range spans {
		tr.add(s)
	}
	return tr
}

// TestTraceOverflowKeepsEverySpan: a trace with more spans than its
// inline capacity keeps all of them, and View returns them in start
// order, ties in the order they were recorded.
func TestTraceOverflowKeepsEverySpan(t *testing.T) {
	const n = 3*inlineSpans + 1
	var spans []Span
	for i := n - 1; i >= 0; i-- {
		spans = append(spans, Span{Name: fmt.Sprintf("s%02d", i), Start: time.Duration(i/2) * time.Microsecond})
	}
	v := pinnedTrace(spans...).View()
	if len(v.Spans) != n {
		t.Fatalf("view has %d spans, want %d", len(v.Spans), n)
	}
	for i, s := range v.Spans {
		// Spans 2j and 2j+1 share a start; 2j+1 was recorded first.
		want := fmt.Sprintf("s%02d", i^1)
		if i == n-1 {
			want = fmt.Sprintf("s%02d", i)
		}
		if s.Name != want || s.StartMS != ms(time.Duration(i/2)*time.Microsecond) {
			t.Errorf("span %d = %+v, want %s at %vms", i, s, want, ms(time.Duration(i/2)*time.Microsecond))
		}
	}
}

// TestTraceRecordConcurrent: batch workers record into one trace at
// once, past the inline capacity, and every span is kept.
func TestTraceRecordConcurrent(t *testing.T) {
	tr := NewTrace("", "POST", "/v1/classify/batch")
	const workers, each = 4, inlineSpans
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Record("compute", time.Now())
			}
		}()
	}
	wg.Wait()
	if n := len(tr.View().Spans); n != workers*each {
		t.Errorf("view has %d spans, want %d", n, workers*each)
	}
}

// TestTraceFinishDuration: Finish returns the duration View reports.
func TestTraceFinishDuration(t *testing.T) {
	tr := NewTrace("", "POST", "/v1/classify")
	tr.start = tr.start.Add(-3 * time.Millisecond)
	dur := tr.Finish(200)
	if dur < 3*time.Millisecond || ms(dur) != tr.View().DurationMS {
		t.Errorf("Finish = %v, View().DurationMS = %v", dur, tr.View().DurationMS)
	}
	if (*Trace)(nil).Finish(200) != 0 {
		t.Error("nil trace Finish must return 0")
	}
}

// TestTracezPinned holds the /debug/tracez body of a fixed trace to
// bytes: the view is built on read, and its shape does not change.
func TestTracezPinned(t *testing.T) {
	ring := NewTraceRing(4)
	ring.Add(pinnedTrace(
		Span{Name: "encode", Start: 1200 * time.Microsecond, Dur: 100 * time.Microsecond},
		Span{Name: "decode", Start: 0, Dur: 250 * time.Microsecond},
		Span{Name: "sealed-get", Start: 900 * time.Microsecond, Dur: 50 * time.Microsecond},
	))
	rec := httptest.NewRecorder()
	TracezHandler(ring).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez", nil))
	const want = `{
  "count": 1,
  "traces": [
    {
      "id": "00000000000000ab",
      "method": "POST",
      "route": "/v1/classify",
      "status": 200,
      "decider": "cycles",
      "start": "2026-01-02T03:04:05.000006Z",
      "duration_ms": 1.5,
      "spans": [
        {
          "name": "decode",
          "start_ms": 0,
          "duration_ms": 0.25
        },
        {
          "name": "sealed-get",
          "start_ms": 0.9,
          "duration_ms": 0.05
        },
        {
          "name": "encode",
          "start_ms": 1.2,
          "duration_ms": 0.1
        }
      ]
    }
  ]
}
`
	if got := rec.Body.String(); got != want {
		t.Errorf("tracez body:\n%s\nwant:\n%s", got, want)
	}
}

// TestMiddlewareLogLines holds the access and slow-request log lines:
// the debug access line appears only when debug is enabled, and the
// slow-request line carries the span breakdown.
func TestMiddlewareLogLines(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := TraceFrom(r.Context())
		tr.SetDecider("cycles")
		tr.Record("decode", time.Now())
		tr.Record("encode", time.Now())
		w.WriteHeader(http.StatusAccepted)
	})
	serve := func(level slog.Level) string {
		var buf strings.Builder
		set := NewSet()
		set.Logger = NewLogger(&buf, level, false)
		set.SlowThreshold = time.Nanosecond
		req := httptest.NewRequest("POST", "/v1/classify", nil)
		req.Header.Set("X-Request-Id", "pinned-id")
		Middleware(inner, set).ServeHTTP(httptest.NewRecorder(), req)
		return buf.String()
	}
	const fields = `component=http id=pinned-id method=POST route=/v1/classify status=202 duration_ms=[0-9.e-]+`
	access := regexp.MustCompile(`(?m)^time=\S+ level=DEBUG msg=request ` + fields + `$`)
	slow := regexp.MustCompile(`(?m)^time=\S+ level=WARN msg="slow request" ` + fields +
		` decider=cycles spans="decode=[0-9.]+ms encode=[0-9.]+ms"$`)

	out := serve(slog.LevelDebug)
	if !access.MatchString(out) || !slow.MatchString(out) || strings.Count(out, "\n") != 2 {
		t.Errorf("debug-level log:\n%s", out)
	}
	out = serve(slog.LevelInfo)
	if access.MatchString(out) || !slow.MatchString(out) || strings.Count(out, "\n") != 1 {
		t.Errorf("info-level log:\n%s", out)
	}
}

// TestNormalizeRouteZeroAlloc: labelling a request's route allocates
// nothing.
func TestNormalizeRouteZeroAlloc(t *testing.T) {
	paths := []string{"/v1/classify", "/v1/classify/batch", "/v1/jobs/j07/events", "/v1/jobs/a/b/events", "/junk/1/2/3/4/5", "/healthz"}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range paths {
			_ = NormalizeRoute(p)
		}
	}); allocs != 0 {
		t.Errorf("NormalizeRoute: %v allocs per sweep, want 0", allocs)
	}
}
