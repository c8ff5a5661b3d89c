// Request tracing: a per-request Trace accumulates stage spans as the
// request moves through the pipeline (decode → fingerprint → memo →
// compute → memo-put → encode), and finished traces are published into
// a lock-free ring buffer served by /debug/tracez.
//
// The tracing API is nil-receiver safe throughout: code paths without
// an active trace (direct library calls, benchmarks) call the same
// methods on a nil *Trace and pay only a nil check — no allocation, no
// time syscalls (callers guard their time.Now with `if tr != nil`).

package obs

import (
	"cmp"
	"context"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named stage of a traced request, as an offset from the
// trace start plus a duration.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_us"`
	Dur   time.Duration `json:"duration_us"`
}

// inlineSpans is how many spans a Trace holds without allocating: a
// sealed or memo hit records fewer. Each slot is kept by every trace in
// the ring, so the array is no larger than the hit path needs.
const inlineSpans = 8

// Trace is one request's trace record. Create with NewTrace, record
// stages with Record, close with Finish, publish with TraceRing.Add.
// Spans may be recorded concurrently (batch items fan out across
// worker goroutines); span order is by start offset at snapshot time.
type Trace struct {
	id     string
	method string
	route  string
	start  time.Time
	seq    uint64 // assigned by the ring at publish

	mu       sync.Mutex
	decider  string
	status   int
	dur      time.Duration
	nspans   int // spans held in inline
	inline   [inlineSpans]Span
	overflow []Span

	// The middleware's per-request state lives in the trace, so that it
	// costs no allocation of its own.
	sw       statusWriter
	idHeader [1]string // the X-Request-Id header value
}

// NewTrace starts a trace. An empty id generates a fresh one.
func NewTrace(id, method, route string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, method: method, route: route, start: time.Now()}
}

// NewTraceID returns a fresh 16-hex-digit request ID.
func NewTraceID() string {
	return Hex16(rand.Uint64())
}

// Hex16 renders v as 16 lowercase, zero-padded hex digits, as
// fmt.Sprintf("%016x", v) does, in one allocation: the form of trace
// IDs and of fingerprints on the wire.
func Hex16(v uint64) string {
	var b [16]byte
	return string(AppendHex16(b[:0], v))
}

// AppendHex16 appends the Hex16 form of v to dst.
func AppendHex16(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>shift&0xf])
	}
	return dst
}

// ID returns the trace's request ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Record appends a span named name that started at start and ends now.
// No-op on a nil trace.
func (t *Trace) Record(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Start: max(start.Sub(t.start), 0), Dur: time.Since(start)})
}

// add keeps s in the first free inline slot, or in overflow once the
// inline array is full.
func (t *Trace) add(s Span) {
	t.mu.Lock()
	if t.nspans < len(t.inline) {
		t.inline[t.nspans] = s
		t.nspans++
	} else {
		t.overflow = append(t.overflow, s)
	}
	t.mu.Unlock()
}

// SetDecider tags the trace with the decider that served it (for the
// tracez decider filter). No-op on a nil trace.
func (t *Trace) SetDecider(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.decider = name
	t.mu.Unlock()
}

// Finish seals the trace with the response status and returns its
// total duration (0 for a nil trace).
func (t *Trace) Finish(status int) time.Duration {
	if t == nil {
		return 0
	}
	dur := time.Since(t.start)
	t.mu.Lock()
	t.status = status
	t.dur = dur
	t.mu.Unlock()
	return dur
}

// TraceView is an immutable snapshot of a finished trace, JSON-shaped
// for /debug/tracez.
type TraceView struct {
	ID         string     `json:"id"`
	Method     string     `json:"method"`
	Route      string     `json:"route"`
	Status     int        `json:"status"`
	Decider    string     `json:"decider,omitempty"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []SpanView `json:"spans,omitempty"`
}

// SpanView is a span rendered in milliseconds.
type SpanView struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// View snapshots the trace, spans sorted by start offset (ties in the
// order they were recorded). Only the readers of traces call it: the
// /debug/tracez handler and the slow-request log.
func (t *Trace) View() TraceView {
	t.mu.Lock()
	v := TraceView{
		ID:         t.id,
		Method:     t.method,
		Route:      t.route,
		Status:     t.status,
		Decider:    t.decider,
		Start:      t.start,
		DurationMS: ms(t.dur),
	}
	spans := append(append(make([]Span, 0, t.nspans+len(t.overflow)), t.inline[:t.nspans]...), t.overflow...)
	t.mu.Unlock()
	v.Spans = make([]SpanView, len(spans))
	slices.SortStableFunc(spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	for i, s := range spans {
		v.Spans[i] = SpanView{Name: s.Name, StartMS: ms(s.Start), DurationMS: ms(s.Dur)}
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// DefaultTraceBuffer is the ring capacity when NewTraceRing gets 0.
const DefaultTraceBuffer = 256

// TraceRing is a lock-free ring buffer of the most recent finished
// traces. Add is wait-free on the fast path (one atomic increment plus
// one atomic pointer store); Snapshot reads every slot without blocking
// writers. Overwritten slots simply drop the oldest trace.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewTraceRing builds a ring holding the last n traces (0 selects
// DefaultTraceBuffer).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceBuffer
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], n)}
}

// Add publishes a finished trace, evicting the oldest when full. No-op
// on a nil ring or trace.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	seq := r.next.Add(1)
	t.seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(t)
}

// Snapshot returns views of the buffered traces, newest first.
func (r *TraceRing) Snapshot() []TraceView {
	if r == nil {
		return nil
	}
	traces := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			traces = append(traces, t)
		}
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].seq > traces[j].seq })
	out := make([]TraceView, len(traces))
	for i, t := range traces {
		out[i] = t.View()
	}
	return out
}

// traceKey is the context key for the active trace.
type traceKey struct{}

// ContextWithTrace returns ctx carrying the trace.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the active trace, or nil. Safe on any context.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
