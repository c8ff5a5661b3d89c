// The HTTP face of the observability layer: the Set bundle one process
// shares across components, the middleware that meters every request
// and carries the trace through the handler stack, and the /metricsz
// and /debug/tracez handlers.

package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Set bundles the observability surface one process shares: the metrics
// registry, the recent-trace ring, the base structured logger, and the
// slow-request threshold. Components receive a *Set and register their
// instruments into Registry; the middleware and the debug handlers
// serve it.
type Set struct {
	Registry *Registry
	Traces   *TraceRing
	Logger   *slog.Logger
	// SlowThreshold is the request duration above which the middleware
	// logs a slow-request warning with the trace's span breakdown
	// (0 disables slow logging).
	SlowThreshold time.Duration
}

// DefaultSlowThreshold is the slow-request log threshold NewSet
// installs.
const DefaultSlowThreshold = 500 * time.Millisecond

// NewSet builds a Set with a fresh registry, a DefaultTraceBuffer-sized
// ring, the default slog logger, and DefaultSlowThreshold.
func NewSet() *Set {
	return &Set{
		Registry:      NewRegistry(),
		Traces:        NewTraceRing(0),
		Logger:        slog.Default(),
		SlowThreshold: DefaultSlowThreshold,
	}
}

// httpMetrics are the middleware's instruments, registered once per
// Set.
type httpMetrics struct {
	requests *CounterVec // method, route, status
	latency  *HistogramVec
	inFlight *Gauge
	slow     *Counter
}

func newHTTPMetrics(r *Registry) *httpMetrics {
	return &httpMetrics{
		requests: r.CounterVec("lcl_http_requests_total",
			"HTTP requests served, by method, route, and status.",
			"method", "route", "status"),
		latency: r.HistogramVec("lcl_http_request_seconds",
			"HTTP request latency in seconds, by route.",
			LatencyBuckets, "route"),
		inFlight: r.Gauge("lcl_http_in_flight_requests",
			"HTTP requests currently being served."),
		slow: r.Counter("lcl_http_slow_requests_total",
			"Requests slower than the slow-request threshold."),
	}
}

// statusWriter captures the response status while passing Flusher
// through (SSE streams flow through the middleware).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer when it supports flushing
// (required by the SSE job-event streams).
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Middleware wraps next with the full request observability pipeline:
// accept or mint the X-Request-Id, start a Trace and carry it in the
// context, meter method/route/status/latency, publish the finished
// trace into the ring, log one access line per request (debug level),
// and log a warning with the span breakdown for requests slower than
// set.SlowThreshold. A nil set returns next unchanged.
func Middleware(next http.Handler, set *Set) http.Handler {
	if set == nil {
		return next
	}
	m := newHTTPMetrics(set.Registry)
	logger := Component(set.Logger, "http")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := NormalizeRoute(r.URL.Path)
		tr := NewTrace(r.Header.Get("X-Request-Id"), r.Method, route)
		tr.idHeader[0] = tr.id
		w.Header()["X-Request-Id"] = tr.idHeader[:]
		sw := &tr.sw
		sw.ResponseWriter = w
		m.inFlight.Add(1)

		next.ServeHTTP(sw, r.WithContext(ContextWithTrace(r.Context(), tr)))

		m.inFlight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		// The ring keeps the trace, not the connection's writer.
		sw.ResponseWriter = nil
		dur := tr.Finish(status)
		m.requests.With(r.Method, route, statusLabel(status)).Inc()
		m.latency.With(route).Observe(dur.Seconds())
		set.Traces.Add(tr)
		if logger.Enabled(r.Context(), slog.LevelDebug) {
			logger.Debug("request",
				"id", tr.id, "method", r.Method, "route", route,
				"status", status, "duration_ms", ms(dur))
		}
		if set.SlowThreshold > 0 && dur >= set.SlowThreshold {
			m.slow.Inc()
			view := tr.View()
			logger.Warn("slow request",
				"id", view.ID, "method", r.Method, "route", route,
				"status", status, "duration_ms", view.DurationMS,
				"decider", view.Decider, "spans", spanSummary(view.Spans))
		}
	})
}

// statusLabels holds the label of every status code net/http writes
// (100–999), so metering a request formats nothing.
var statusLabels = func() (t [1000]string) {
	for code := 100; code < len(t); code++ {
		t[code] = strconv.Itoa(code)
	}
	return t
}()

func statusLabel(code int) string {
	if code >= 100 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// spanSummary renders spans compactly for log lines:
// "decode=0.1ms memo-get=0.0ms compute=312.4ms".
func spanSummary(spans []SpanView) string {
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(s.DurationMS, 'f', 1, 64))
		b.WriteString("ms")
	}
	return b.String()
}

// NormalizeRoute maps a request path onto a bounded route label:
// dynamic segments (census k, job IDs, proof fingerprints) collapse to
// placeholders so metric cardinality stays fixed, and unknown paths
// collapse to "other". Matching is by exact segment shape — a path with
// extra segments (`/v1/jobs/a/b/events`) is "other", not a spurious
// match, so the label set is exactly the route table plus "other".
func NormalizeRoute(path string) string {
	switch path {
	case "/healthz", "/statsz", "/metricsz", "/debug/tracez":
		return path
	}
	// Split in place: no route has more than four segments, so a path
	// with a fifth is "other" without looking further.
	var segs [4]string
	seg := segs[:0]
	for rest := strings.Trim(path, "/"); ; {
		if len(seg) == len(segs) {
			return "other"
		}
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			seg = append(seg, rest)
			break
		}
		seg = append(seg, rest[:i])
		rest = rest[i+1:]
	}
	if len(seg) < 2 || seg[0] != "v1" {
		return "other"
	}
	switch seg[1] {
	case "classify":
		if len(seg) == 2 {
			return "/v1/classify"
		}
		if len(seg) == 3 && seg[2] == "batch" {
			return "/v1/classify/batch"
		}
	case "census":
		if len(seg) == 3 {
			return "/v1/census/{k}"
		}
		if len(seg) == 4 && seg[2] == "paths" {
			return "/v1/census/paths/{k}"
		}
	case "jobs":
		switch {
		case len(seg) == 2:
			return "/v1/jobs"
		case len(seg) == 3:
			return "/v1/jobs/{id}"
		case len(seg) == 4 && seg[3] == "events":
			return "/v1/jobs/{id}/events"
		}
	case "proof":
		if len(seg) == 3 {
			return "/v1/proof/{fingerprint}"
		}
	case "admin":
		if len(seg) == 3 && seg[2] == "snapshot" {
			return "/v1/admin/snapshot"
		}
	}
	return "other"
}

// MetricsHandler serves the registry in Prometheus text exposition
// format (GET /metricsz).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// tracezResponse is the /debug/tracez JSON shape.
type tracezResponse struct {
	Count  int         `json:"count"`
	Traces []TraceView `json:"traces"`
}

// TracezHandler serves the recent-trace ring as JSON (GET
// /debug/tracez), newest first. Query parameters:
//
//	decider=cycles   only traces served by this decider
//	min_ms=5         only traces at least this slow
//	limit=50         at most this many traces
func TracezHandler(ring *TraceRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		decider := q.Get("decider")
		minMS := 0.0
		if v := q.Get("min_ms"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "invalid min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			minMS = f
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "invalid limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			limit = n
		}
		views := ring.Snapshot()
		out := tracezResponse{Traces: []TraceView{}}
		for _, v := range views {
			if decider != "" && v.Decider != decider {
				continue
			}
			if v.DurationMS < minMS {
				continue
			}
			out.Traces = append(out.Traces, v)
			if limit > 0 && len(out.Traces) == limit {
				break
			}
		}
		out.Count = len(out.Traces)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
