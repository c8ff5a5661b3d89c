package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// small is one run of the real small grid, shared by the tests
// (repeats=1 keeps it fast; the grid itself is the production one).
var small struct {
	once   sync.Once
	report *Report
	err    error
}

func runSmallGrid() (*Report, error) {
	return runGrid("small", grids["small"], 1, 1, new(bytes.Buffer))
}

// sharedSmallReport returns the shared small-grid run itself; callers
// must only read it.
func sharedSmallReport(t *testing.T) *Report {
	t.Helper()
	small.once.Do(func() { small.report, small.err = runSmallGrid() })
	if small.err != nil {
		t.Fatal(small.err)
	}
	return small.report
}

// smallReport returns a deep copy of the shared small-grid run, which the
// caller may change freely.
func smallReport(t *testing.T) *Report {
	t.Helper()
	return cloneReport(sharedSmallReport(t))
}

func TestRunGridProducesValidReport(t *testing.T) {
	r := smallReport(t)
	if err := validateReport(r); err != nil {
		t.Fatal(err)
	}
	if len(r.Experiments) != len(grids["small"]) {
		t.Fatalf("%d experiments, want %d", len(r.Experiments), len(grids["small"]))
	}
	// The deterministic metric really is deterministic: a second run
	// reproduces every rounds value and experiment name exactly.
	again, err := runSmallGrid()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Experiments {
		if r.Experiments[i].Name != again.Experiments[i].Name || r.Experiments[i].Rounds != again.Experiments[i].Rounds {
			t.Fatalf("run not deterministic at %d: %+v vs %+v", i, r.Experiments[i], again.Experiments[i])
		}
	}
	// Warm experiments hit the cache on the timed run.
	for _, e := range r.Experiments {
		if (e.Cache == CacheWarm || e.Cache == CacheSnapshot) && e.HitRate.Mean != 1 {
			t.Fatalf("%s: hit rate %v, want 1", e.Name, e.HitRate.Mean)
		}
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	// The runner's own output, not a copy: writeReport only reads it.
	r := sharedSmallReport(t)
	path := filepath.Join(t.TempDir(), "BENCH_small.json")
	if err := writeReport(path, r); err != nil {
		t.Fatal(err)
	}
	loaded, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, loaded) {
		t.Fatal("report did not round-trip through JSON")
	}
}

func TestValidateReportRejectsMalformed(t *testing.T) {
	r := smallReport(t)
	mutations := []struct {
		name string
		mut  func(*Report)
	}{
		{"bad-schema", func(r *Report) { r.Schema = "lclbench/v0" }},
		{"no-experiments", func(r *Report) { r.Experiments = nil }},
		{"dup-name", func(r *Report) { r.Experiments[1].Name = r.Experiments[0].Name }},
		{"bad-kind", func(r *Report) { r.Experiments[0].Kind = "mystery" }},
		{"bad-cache", func(r *Report) { r.Experiments[0].Cache = "lukewarm" }},
		{"sample-count", func(r *Report) { r.Experiments[0].LatencyMS.Samples = nil }},
		{"zero-latency", func(r *Report) {
			r.Experiments[0].LatencyMS.Min = 0
			r.Experiments[0].LatencyMS.Mean = 0
		}},
		{"warm-no-hits", func(r *Report) {
			r.Experiments[1].HitRate = Dist{Samples: r.Experiments[1].HitRate.Samples}
		}},
		{"bad-rounds", func(r *Report) { r.Experiments[0].Rounds = 0 }},
		// The batch gate reads the median sample, not the mean: one
		// outlier repeat cannot lift a slow pipeline over 3x.
		{"batch-median-below-3x", func(r *Report) {
			for i := range r.Experiments {
				if e := &r.Experiments[i]; e.Kind == KindBatch {
					samples := make([]float64, len(e.SpeedupVsMemo.Samples))
					for j := range samples {
						samples[j] = 2
					}
					e.SpeedupVsMemo = &Dist{Mean: 10, Min: 2, Samples: samples}
				}
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := cloneReport(r)
			m.mut(bad)
			if err := validateReport(bad); err == nil {
				t.Fatal("malformed report validated")
			}
		})
	}
}

// cloneReport deep-copies r by hand, so a copy never depends on the JSON
// codec that TestReportFileRoundTrip checks.
func cloneReport(r *Report) *Report {
	c := *r
	c.Experiments = make([]Experiment, len(r.Experiments))
	copy(c.Experiments, r.Experiments)
	for i := range c.Experiments {
		e := &c.Experiments[i]
		e.LatencyMS = cloneDist(e.LatencyMS)
		e.HitRate = cloneDist(e.HitRate)
		for _, d := range []**Dist{&e.AllocsPerOp, &e.SpeedupVsMemo, &e.LookupsPerSec, &e.BuildRepsPerSec, &e.LoadReadFileMS, &e.ItemsPerSec} {
			if *d != nil {
				v := cloneDist(**d)
				*d = &v
			}
		}
	}
	return &c
}

func cloneDist(d Dist) Dist {
	d.Samples = slices.Clone(d.Samples)
	return d
}

func TestCheckRegression(t *testing.T) {
	base := smallReport(t)
	if failures := checkRegression(base, cloneReport(base), 0.25); len(failures) != 0 {
		t.Fatalf("self-check failed: %v", failures)
	}

	// Warm-path latency regression: inflate every warm latency 10x. Cold
	// latencies are pinned above the floor in both reports first — the
	// real grid's cold runs are machine-dependent and may dip below
	// LatencyFloorMS on fast hardware, which would exempt them from the
	// ratio gate and leave nothing for the inflation to trip.
	pinned := cloneReport(base)
	for i := range pinned.Experiments {
		e := &pinned.Experiments[i]
		if e.Cache == CacheCold {
			e.LatencyMS.Min = math.Max(e.LatencyMS.Min, LatencyFloorMS*10)
			e.LatencyMS.Mean = math.Max(e.LatencyMS.Mean, e.LatencyMS.Min)
		}
	}
	slow := cloneReport(pinned)
	for i := range slow.Experiments {
		e := &slow.Experiments[i]
		if e.Cache == CacheWarm || e.Cache == CacheSnapshot {
			e.LatencyMS.Mean *= 10
			e.LatencyMS.Min *= 10
			for j := range e.LatencyMS.Samples {
				e.LatencyMS.Samples[j] *= 10
			}
		}
	}
	failures := checkRegression(pinned, slow, 0.25)
	if len(failures) == 0 {
		t.Fatal("10x warm-path regression passed the gate")
	}
	for _, f := range failures {
		if !strings.Contains(f, "warm-path latency regressed") {
			t.Fatalf("unexpected failure: %s", f)
		}
	}

	// Sub-floor experiments are exempt from the latency-ratio gate: with
	// the k=2 cold runs pinned below LatencyFloorMS, inflating the k=2
	// warm runs must not trip it — at that scale the ratio is scheduler
	// noise, and rounds/hit-rate still gate those points.
	floorBase, noisy := cloneReport(base), cloneReport(base)
	trippedFloor := false
	for _, r := range []*Report{floorBase, noisy} {
		for i := range r.Experiments {
			e := &r.Experiments[i]
			if e.K == 2 && e.Cache == CacheCold {
				e.LatencyMS.Min = 1.0 // well under LatencyFloorMS
				e.LatencyMS.Mean = math.Max(e.LatencyMS.Mean, e.LatencyMS.Min)
			}
		}
	}
	for i := range noisy.Experiments {
		e := &noisy.Experiments[i]
		if e.K == 2 && (e.Cache == CacheWarm || e.Cache == CacheSnapshot) {
			e.LatencyMS.Mean *= 10
			e.LatencyMS.Min *= 10
			for j := range e.LatencyMS.Samples {
				e.LatencyMS.Samples[j] *= 10
			}
			trippedFloor = true
		}
	}
	if !trippedFloor {
		t.Fatal("grid has no k=2 warm experiments to test the floor with")
	}
	if failures := checkRegression(floorBase, noisy, 0.25); len(failures) != 0 {
		t.Fatalf("sub-floor latency noise failed the gate: %v", failures)
	}

	// A uniform slowdown (cold and warm alike — a slower machine) is NOT
	// a regression: the gate is normalized.
	slower := cloneReport(base)
	for i := range slower.Experiments {
		e := &slower.Experiments[i]
		e.LatencyMS.Mean *= 7
		e.LatencyMS.Min *= 7
		for j := range e.LatencyMS.Samples {
			e.LatencyMS.Samples[j] *= 7
		}
	}
	if failures := checkRegression(base, slower, 0.25); len(failures) != 0 {
		t.Fatalf("uniformly slower machine failed the gate: %v", failures)
	}

	// Rounds drift is an exact-match failure.
	drift := cloneReport(base)
	drift.Experiments[0].Rounds++
	if failures := checkRegression(base, drift, 0.25); len(failures) != 1 || !strings.Contains(failures[0], "rounds") {
		t.Fatalf("rounds drift: %v", failures)
	}

	// Hit-rate collapse fails; validateReport already rejects hit rate 0
	// on warm experiments, so model a partial drop.
	coldCache := cloneReport(base)
	for i := range coldCache.Experiments {
		e := &coldCache.Experiments[i]
		if e.Cache == CacheWarm || e.Cache == CacheSnapshot {
			e.HitRate.Mean *= 0.5
		}
	}
	if failures := checkRegression(base, coldCache, 0.25); len(failures) == 0 {
		t.Fatal("hit-rate collapse passed the gate")
	}

	// A missing experiment fails.
	missing := cloneReport(base)
	missing.Experiments = missing.Experiments[1:]
	if failures := checkRegression(base, missing, 0.25); len(failures) == 0 {
		t.Fatal("missing experiment passed the gate")
	}
}

// TestTrajectory covers the per-PR trajectory row: append, re-read,
// validation, and the one-row-per-label-per-grid invariant.
func TestTrajectory(t *testing.T) {
	r := smallReport(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_trajectory.jsonl")
	if err := appendTrajectory(path, "pr-1", r); err != nil {
		t.Fatal(err)
	}
	if err := appendTrajectory(path, "pr-2", r); err != nil {
		t.Fatal(err)
	}
	n, err := validateTrajectory(path)
	if err != nil || n != 2 {
		t.Fatalf("validate: %d rows, %v", n, err)
	}
	if err := appendTrajectory(path, "pr-1", r); err == nil {
		t.Fatal("duplicate label for the same grid accepted")
	}

	rows, err := readTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Label != "pr-1" || rows[0].Grid != "small" || rows[0].GoVersion == "" {
		t.Fatalf("row provenance: %+v", rows[0])
	}
	if len(rows[0].Metrics) != len(r.Experiments) {
		t.Fatalf("row has %d metrics, want %d", len(rows[0].Metrics), len(r.Experiments))
	}
	// The specialty gauges of the batch experiments survive compression.
	dedup, ok := rows[0].Metrics["batch/dedup/k=3"]
	if !ok || dedup.SpeedupMean == nil || dedup.ItemsPerSec == nil {
		t.Fatalf("batch/dedup cell incomplete: %+v", dedup)
	}
	sealed, ok := rows[0].Metrics["batch/sealed-multiprobe/k=2"]
	if !ok || sealed.AllocsPerOp == nil || sealed.ItemsPerSec == nil {
		t.Fatalf("batch/sealed-multiprobe cell incomplete: %+v", sealed)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope","label":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := validateTrajectory(bad); err == nil {
		t.Fatal("wrong-schema trajectory validated")
	}
	if _, err := validateTrajectory(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing trajectory file validated")
	}
}

// TestCLI drives the entry modes through run() end to end.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_small.json")
	traj := filepath.Join(dir, "BENCH_trajectory.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-grid", "small", "-repeats", "1", "-out", out, "-trajectory", traj, "-label", "pr-test"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-validate", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("validate exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-validate-trajectory", traj}, &stdout, &stderr); code != 0 {
		t.Fatalf("validate-trajectory exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-check", out, "-baseline", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("check exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-check", out}, &stdout, &stderr); code != 2 {
		t.Fatalf("check without baseline exit %d", code)
	}
	if code := run([]string{"-grid", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown grid exit %d", code)
	}
	if code := run([]string{"-grid", "small", "-repeats", "1", "-out", out, "-trajectory", traj}, &stdout, &stderr); code != 2 {
		t.Fatalf("trajectory without label exit %d", code)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 100, 2, 3, 4}, 3},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input: %v", c.in)
			}
		}
	}
}
