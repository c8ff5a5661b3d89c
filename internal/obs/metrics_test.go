package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeConcurrent hammers the atomic instruments from many
// goroutines; run under -race this doubles as a data-race check, and
// the final values check that no update was lost.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_lat", "lat", []float64{1, 10, 100})

	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 200))
			}
		}()
	}
	wg.Wait()

	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), float64(goroutines*perG); got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	// Sum of j%200 over perG iterations, times goroutines.
	var per float64
	for j := 0; j < perG; j++ {
		per += float64(j % 200)
	}
	if got, want := h.Sum(), per*goroutines; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// TestNilInstruments checks every instrument is nil-receiver safe — the
// property uninstrumented hot paths rely on.
func TestNilInstruments(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

// TestHistogramQuantile checks the bucket-interpolation estimator on a
// known distribution.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q", "q", []float64{10, 20, 30, 40})
	// 100 observations uniform over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	if got := h.Quantile(0.5); math.Abs(got-20) > 1 {
		t.Errorf("p50 = %v, want ~20", got)
	}
	if got := h.Quantile(0.95); math.Abs(got-38) > 1 {
		t.Errorf("p95 = %v, want ~38", got)
	}
	// Overflow observations clamp to the largest finite bound.
	h.Observe(1e9)
	if got := h.Quantile(0.9999); got != 40 {
		t.Errorf("overflow quantile = %v, want clamp to 40", got)
	}
}

// TestWritePrometheusGolden pins the exact exposition output: families
// sorted by name, HELP/TYPE headers, label rendering, cumulative
// histogram buckets with _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "Sorted last.").Add(3)
	v := r.CounterVec("aa_reqs_total", "Requests.", "method", "route")
	v.With("GET", "/x").Inc()
	v.With("POST", "/y").Add(2)
	r.Gauge("mm_depth", "Depth.").Set(2.5)
	h := r.Histogram("hh_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_reqs_total Requests.
# TYPE aa_reqs_total counter
aa_reqs_total{method="GET",route="/x"} 1
aa_reqs_total{method="POST",route="/y"} 2
# HELP hh_lat_seconds Latency.
# TYPE hh_lat_seconds histogram
hh_lat_seconds_bucket{le="0.1"} 1
hh_lat_seconds_bucket{le="1"} 2
hh_lat_seconds_bucket{le="+Inf"} 3
hh_lat_seconds_sum 5.55
hh_lat_seconds_count 3
# HELP mm_depth Depth.
# TYPE mm_depth gauge
mm_depth 2.5
# HELP zz_last_total Sorted last.
# TYPE zz_last_total counter
zz_last_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCollectFamilies checks sampled families emit at scrape time.
func TestCollectFamilies(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.CounterFunc("cf_total", "Sampled.", func() float64 { n++; return float64(n) })
	r.CollectGauges("cg", "Sampled labeled.", []string{"shard"},
		func(emit func([]string, float64)) {
			emit([]string{"0"}, 1)
			emit([]string{"1"}, 2)
		})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"cf_total 1\n", `cg{shard="0"} 1` + "\n", `cg{shard="1"} 2` + "\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cf_total 2\n") {
		t.Errorf("second scrape should re-sample: %s", b.String())
	}
}

// TestRegistryIdempotentAndConflicts: identical re-registration returns
// the same instrument; a conflicting signature panics.
func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second help ignored")
	a.Inc()
	if b.Value() != 1 {
		t.Error("idempotent registration must return the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting kind re-registration must panic")
			}
		}()
		r.Gauge("dup_total", "now a gauge")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("conflicting label re-registration must panic")
			}
		}()
		r.CounterVec("dup_total", "now labeled", "x")
	}()
}

// TestLabelEscaping pins backslash/quote/newline escaping in label
// values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "esc", "v").With("a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped sample %q missing from:\n%s", want, b.String())
	}
}

// TestWithExistingChildZeroAlloc: looking up an existing child of a
// labeled family allocates nothing, so metering a request is free once
// its label values have been seen.
func TestWithExistingChildZeroAlloc(t *testing.T) {
	r := NewRegistry()
	requests := r.CounterVec("requests_total", "h", "method", "route", "status")
	latency := r.HistogramVec("latency_seconds", "h", nil, "route")
	requests.With("POST", "/v1/classify", "200").Inc()
	latency.With("/v1/classify").Observe(0.001)
	if allocs := testing.AllocsPerRun(100, func() {
		requests.With("POST", "/v1/classify", "200").Inc()
		latency.With("/v1/classify").Observe(0.001)
	}); allocs != 0 {
		t.Errorf("With on existing children: %v allocs/op, want 0", allocs)
	}
	if got := statusLabel(200); got != "200" || statusLabel(1000) != "1000" || statusLabel(99) != "99" {
		t.Errorf("statusLabel(200) = %q", got)
	}
}
