// Package obs is the zero-dependency observability layer shared by the
// whole serving stack: a metrics registry (atomic counters, float
// gauges, fixed-bucket histograms with quantile estimation) rendered in
// Prometheus text exposition format, lightweight per-request tracing
// with a lock-free ring of recent traces, component-scoped structured
// logging over log/slog, and the HTTP middleware that ties the three
// together (request metrics, trace-ID propagation, slow-request
// logging).
//
// Everything on a serving hot path is allocation-free: Counter.Inc,
// Gauge.Set, and Histogram.Observe are a handful of atomic operations,
// and every instrument is nil-receiver safe so uninstrumented code
// paths need no branching. Scrape-time work (rendering, quantiles,
// sampled collect callbacks) happens only when /metricsz is read.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs/promtext"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; a nil *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down, stored as atomic
// bits. The zero value is ready; a nil *Gauge is a no-op instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by delta (CAS loop; safe concurrently).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets is the default histogram bucket layout for durations
// in seconds: 50µs to 10s, roughly logarithmic.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// SizeBuckets is the default bucket layout for counts (batch sizes,
// queue depths): powers of two up to 64k.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// Histogram is a fixed-bucket histogram. Observe is allocation-free:
// one linear scan over the (small, immutable) bound slice plus three
// atomic updates. A nil *Histogram is a no-op instrument.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket; an implicit
	// +Inf bucket follows the last bound.
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, last is the +Inf overflow
	count   atomic.Uint64
	sum     Gauge // accumulated via CAS adds
}

// newHistogram builds a histogram over the given bounds (which must be
// sorted ascending; nil selects LatencyBuckets).
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket where the quantile rank falls — the same estimate a
// Prometheus histogram_quantile would produce. Values in the +Inf
// overflow bucket clamp to the largest finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return promtext.QuantileFromBuckets(h.bounds, counts, total, q)
}

// QuantileFromBuckets estimates the q-quantile of a histogram given as
// finite bucket bounds plus per-bucket (non-cumulative) counts, with
// counts one longer than bounds (the final count is the +Inf overflow
// bucket, clamped to the largest finite bound). It is the estimator
// Histogram.Quantile uses; the implementation lives in
// internal/obs/promtext so scrape-side consumers (lcltool metrics,
// lclload) apply the exact same interpolation to parsed exposition
// data.
func QuantileFromBuckets(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	return promtext.QuantileFromBuckets(bounds, counts, total, q)
}

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labeled instrument inside a family.
type child struct {
	labels string // pre-rendered `a="b",c="d"` (empty for scalar metrics)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric family: a fixed kind plus either live
// instruments (children) or a scrape-time collect callback.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	bounds     []float64 // histogram families

	mu       sync.RWMutex
	order    []string
	children map[string]*child

	// collect, when non-nil, makes this a sampled family: it is invoked
	// at scrape time and emits (labelValues, value) pairs.
	collect func(emit func(labelValues []string, v float64))
	// collectHist, when non-nil, makes this a sampled histogram family:
	// it is invoked at scrape time and returns the full bucket snapshot
	// (the runtime collector exposes runtime/metrics histograms this
	// way).
	collectHist func() HistogramSnapshot
}

// HistogramSnapshot is a point-in-time histogram for sampled histogram
// families: finite bucket upper bounds plus non-cumulative counts one
// longer than Bounds (the last is the +Inf overflow), and the sum and
// count series.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use.
// Registration is idempotent for identical (name, kind, labels)
// signatures and panics on conflicting re-registration — a programming
// error, like Prometheus client libraries treat it.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register returns the family for name, creating it on first use and
// verifying the signature matches on re-registration.
func (r *Registry) register(name, help string, kind metricKind, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: conflicting registration of %q: %s%v vs %s%v",
				name, f.kind, f.labelNames, kind, labelNames))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: labelNames,
		bounds:     bounds,
		children:   map[string]*child{},
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.counterChild(nil)
}

// Gauge registers (or returns) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.gaugeChild(nil)
}

// Histogram registers (or returns) a scalar histogram over bounds (nil
// selects LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, bounds)
	return f.histogramChild(nil)
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values (created on
// first use). The value count must match the registered label names.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.counterChild(labelValues)
}

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labelNames, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.gaugeChild(labelValues)
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family over bounds (nil
// selects LatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labelNames, bounds)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.histogramChild(labelValues)
}

// CounterFunc registers a sampled counter: fn is called at scrape time.
// Use it to expose counters another subsystem already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// GaugeFunc registers a sampled gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.collect = func(emit func([]string, float64)) { emit(nil, fn()) }
}

// CollectCounters registers a sampled, labeled counter family: collect
// runs at scrape time and emits one sample per label-value tuple. One
// callback per family keeps scrape cost proportional to families, not
// series (e.g. one ShardStats call emits every per-shard sample).
func (r *Registry) CollectCounters(name, help string, labelNames []string, collect func(emit func(labelValues []string, v float64))) {
	f := r.register(name, help, kindCounter, labelNames, nil)
	f.collect = collect
}

// CollectGauges registers a sampled, labeled gauge family.
func (r *Registry) CollectGauges(name, help string, labelNames []string, collect func(emit func(labelValues []string, v float64))) {
	f := r.register(name, help, kindGauge, labelNames, nil)
	f.collect = collect
}

// HistogramFunc registers a sampled scalar histogram family: fn runs at
// scrape time and returns the full bucket snapshot. Use it to expose a
// histogram another subsystem already maintains (runtime/metrics GC
// pause and scheduler-latency distributions). The snapshot's counts
// must be non-cumulative with the +Inf overflow last; the writer
// renders the cumulative _bucket series Prometheus expects.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	f := r.register(name, help, kindHistogram, nil, nil)
	f.collectHist = fn
}

// childFor returns the child for the label values, creating it via mk.
func (f *family) childFor(labelValues []string, mk func() *child) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: %s: got %d label values, want %d", f.name, len(labelValues), len(f.labelNames)))
	}
	// The key is built on the stack and the map indexed with
	// m[string(buf)], so finding an existing child allocates nothing.
	var buf [128]byte
	key := buf[:0]
	for i, v := range labelValues {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c, ok := f.children[string(key)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c = mk()
	c.labels = renderLabels(f.labelNames, labelValues)
	k := string(key)
	f.children[k] = c
	f.order = append(f.order, k)
	return c
}

func (f *family) counterChild(labelValues []string) *Counter {
	return f.childFor(labelValues, func() *child { return &child{c: &Counter{}} }).c
}

func (f *family) gaugeChild(labelValues []string) *Gauge {
	return f.childFor(labelValues, func() *child { return &child{g: &Gauge{}} }).g
}

func (f *family) histogramChild(labelValues []string) *Histogram {
	return f.childFor(labelValues, func() *child { return &child{h: newHistogram(f.bounds)} }).h
}

// renderLabels renders `a="x",b="y"` with Prometheus escaping.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4), families sorted by name, children in creation
// order. Histograms emit cumulative _bucket series plus _sum and
// _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		if f.collectHist != nil {
			writeHistogramSnapshot(&b, f.name, "", f.collectHist())
		} else if f.collect != nil {
			f.collect(func(labelValues []string, v float64) {
				writeSample(&b, f.name, renderLabels(f.labelNames, labelValues), formatFloat(v))
			})
		} else {
			f.mu.RLock()
			for _, key := range f.order {
				c := f.children[key]
				switch {
				case c.c != nil:
					writeSample(&b, f.name, c.labels, strconv.FormatUint(c.c.Value(), 10))
				case c.g != nil:
					writeSample(&b, f.name, c.labels, formatFloat(c.g.Value()))
				case c.h != nil:
					writeHistogram(&b, f.name, c.labels, c.h)
				}
			}
			f.mu.RUnlock()
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.Sum(),
		Count:  h.count.Load(),
	}
	for i := range h.buckets {
		snap.Counts[i] = h.buckets[i].Load()
	}
	writeHistogramSnapshot(b, name, labels, snap)
}

// writeHistogramSnapshot renders one histogram child's cumulative
// _bucket series plus _sum and _count from a non-cumulative snapshot.
func writeHistogramSnapshot(b *strings.Builder, name, labels string, snap HistogramSnapshot) {
	var cum uint64
	for i, bound := range snap.Bounds {
		if i < len(snap.Counts) {
			cum += snap.Counts[i]
		}
		le := `le="` + formatFloat(bound) + `"`
		if labels != "" {
			le = labels + "," + le
		}
		writeSample(b, name+"_bucket", le, strconv.FormatUint(cum, 10))
	}
	if len(snap.Counts) > len(snap.Bounds) {
		cum += snap.Counts[len(snap.Counts)-1]
	}
	le := `le="+Inf"`
	if labels != "" {
		le = labels + "," + le
	}
	writeSample(b, name+"_bucket", le, strconv.FormatUint(cum, 10))
	writeSample(b, name+"_sum", labels, formatFloat(snap.Sum))
	writeSample(b, name+"_count", labels, strconv.FormatUint(snap.Count, 10))
}
