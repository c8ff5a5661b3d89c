// Command lclbench is the reproducible experiment runner behind the
// BENCH_<grid>.json trajectory: it executes a fixed grid of census
// experiments (alphabet size × worker count × cache state) plus path
// census runs, repeats each experiment, and emits a machine-readable
// report with per-experiment latency (mean/std/min), memo hit rate, and
// a deterministic rounds metric. CI diffs the report against the
// committed baseline and fails on warm-path regressions.
//
// Run a grid:
//
//	lclbench -grid small -repeats 3 -out BENCH_small.json
//
// Validate a report's schema:
//
//	lclbench -validate BENCH_small.json
//
// Gate a candidate against a baseline (the CI regression check):
//
//	lclbench -check BENCH_small.candidate.json -baseline BENCH_small.json -tolerance 0.25
//
// Two of the three recorded quantities are machine-independent and
// gated strictly: the rounds metric (a deterministic LOCAL Linial
// coloring run, compared for exact equality) and the memo hit rate.
// Wall-clock latency is machine-dependent, so the warm-path latency gate
// compares the *normalized* warm cost — warm (or snapshot-restored)
// latency relative to the same run's cold latency — against the
// baseline's, and fails when it regresses by more than the tolerance.
// That keeps the gate meaningful across CI hardware generations while
// still catching "memoization stopped paying off" regressions.
//
// Cache states: cold (fresh cache), warm (cache pre-warmed in memory),
// and snapshot (cache pre-warmed, persisted via internal/store,
// re-loaded from disk into a fresh cache — the restart path lclserver's
// -snapshot flag takes).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/lcl"
	"repro/internal/local"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/rooted"
	"repro/internal/service"
	"repro/internal/store"
)

// SchemaV1 tags the report format. Bump on breaking schema changes.
const SchemaV1 = "lclbench/v1"

// TrajectorySchemaV1 tags the per-PR trajectory row format: one compact
// JSON line per labeled run, appended to a committed .jsonl file so the
// repo's performance history travels with its code history.
const TrajectorySchemaV1 = "lclbench/trajectory/v1"

// Experiment kinds.
const (
	KindCensus = "census"
	KindPaths  = "paths"
	// KindRooted times the rooted-tree census (internal/rooted) with the
	// service layer's per-problem memoization, cold and warm.
	KindRooted = "rooted"
	// KindGrid times oriented-grid classification of the full k-letter
	// mask space through a real service engine ("grid" mode), cold and
	// warm.
	KindGrid = "grid"
	// KindAlloc measures the zero-allocation invariant of the hot path:
	// allocations per orbit-table CanonicalKey call over the full mask
	// space. AllocsPerOp is machine-independent and gated strictly (the
	// invariant is 0 allocs/op).
	KindAlloc = "alloc"
	// KindOrbit times the orbit-representative census enumeration (the
	// mask sweep that skips non-canonical pairs up front). Its HitRate
	// records the skip ratio — masks skipped / total, machine-independent
	// — and its latency the sweep cost.
	KindOrbit = "orbit"
	// KindSealed builds a sealed landscape table over the k-letter cycle
	// mask space and measures the sealed lookup against the warm
	// memo-hit serving path (a real engine with a pre-warmed cache).
	// AllocsPerOp gates the 0 allocs/op invariant, SpeedupVsMemo the
	// >= 10x latency win, and LookupsPerSec the multi-million-QPS-class
	// throughput — all machine-independent enough to gate absolutely.
	KindSealed = "sealed"
	// KindSealedBuild times the sharded sealed-artifact build
	// (service.BuildSealedFile) end to end — enumeration, classification,
	// run-file writes, and the final EncodeSealed/SaveSealed — at a given
	// worker count.
	// BuildRepsPerSec records classification throughput; Cores records
	// the machine parallelism so the 1-vs-8-worker scaling gate only
	// fires where 8 workers can actually run (validateReport).
	KindSealedBuild = "sealedbuild"
	// KindSealedLoad times opening a sealed artifact for serving both
	// ways: LatencyMS is the mmap zero-copy open (store.OpenSealedMapped,
	// checksum pass included), LoadReadFileMS the portable heap load the
	// mmap path falls back to.
	KindSealedLoad = "sealedload"
	// KindBatch times the vectorized batch pipeline on a duplicate-heavy
	// request set (75% of items repeat an earlier item, pointer-shared
	// as the HTTP handler arranges for byte-identical payloads) against
	// a per-item Classify loop over the same requests and engine state.
	// SpeedupVsMemo records the items/sec multiple — the acceptance bar
	// is >= 3x — and ItemsPerSec the batch throughput.
	KindBatch = "batch"
	// KindBatchSealed times batch serving entirely out of the sealed
	// table: a unique-heavy batch over the whole k-letter mask space
	// resolved by the sorted multi-probe SealedTable.GetBatch and the
	// engine's memoized verdict wrappers. AllocsPerOp counts allocations
	// per served item; the tier's contract is 0.
	KindBatchSealed = "batchsealed"
)

// Cache states for census experiments.
const (
	CacheCold     = "cold"
	CacheWarm     = "warm"
	CacheSnapshot = "snapshot"
)

// Dist summarizes the repeats of one measured quantity. It is the
// shared obs.Dist (the alias keeps the BENCH report JSON schema
// byte-identical while lclload and lclbench agree on the summary
// form).
type Dist = obs.Dist

// Experiment is one grid point's results.
type Experiment struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	K       int    `json:"k"`
	Workers int    `json:"workers,omitempty"`
	Cache   string `json:"cache,omitempty"`
	// Delta is the rooted census child count (KindRooted only).
	Delta int `json:"delta,omitempty"`
	// Dims is the torus dimension (KindGrid only).
	Dims int `json:"dims,omitempty"`
	// LatencyMS is the wall-clock latency of the timed run, in
	// milliseconds (machine-dependent; gated via the warm/cold ratio).
	LatencyMS Dist `json:"latency_ms"`
	// HitRate is memo cache hits / lookups during the timed run
	// (machine-independent; gated against the baseline).
	HitRate Dist `json:"hit_rate"`
	// Rounds is the deterministic complexity anchor: the round count of
	// a LOCAL Linial coloring on a fixed path with seed-derived IDs.
	// Bit-identical across machines; gated for exact equality.
	Rounds int `json:"rounds"`
	// AllocsPerOp records heap allocations per operation (KindAlloc and
	// KindSealed); machine-independent, expected 0 on both paths.
	AllocsPerOp *Dist `json:"allocs_per_op,omitempty"`
	// SpeedupVsMemo is the warm memo-hit serving latency divided by the
	// sealed lookup latency over the same keys (KindSealed only); the
	// sealed tier's acceptance bar is >= 10.
	SpeedupVsMemo *Dist `json:"speedup_vs_memo,omitempty"`
	// LookupsPerSec is the sealed lookup throughput (KindSealed only).
	LookupsPerSec *Dist `json:"lookups_per_sec,omitempty"`
	// Cores is the machine parallelism (runtime.NumCPU) the experiment
	// ran under (KindSealedBuild only); the worker-scaling gate is
	// conditional on it.
	Cores int `json:"cores,omitempty"`
	// BuildRepsPerSec is orbit representatives classified per second
	// over the whole sharded build (KindSealedBuild only).
	BuildRepsPerSec *Dist `json:"build_reps_per_sec,omitempty"`
	// LoadReadFileMS is the portable heap-load latency of the same
	// artifact LatencyMS maps (KindSealedLoad only).
	LoadReadFileMS *Dist `json:"load_readfile_ms,omitempty"`
	// ItemsPerSec is the batch-pipeline serving throughput in items per
	// second (KindBatch and KindBatchSealed only).
	ItemsPerSec *Dist `json:"items_per_sec,omitempty"`
}

// TrajectoryRow is one line of BENCH_trajectory.jsonl: the
// machine-independent (or at least trend-worthy) metrics of one grid
// run, keyed by experiment name. Rows carry no timestamps — the label
// (the PR that appended the row) and git history order them — so
// re-running the same tree appends a byte-identical row.
type TrajectoryRow struct {
	Schema    string                    `json:"schema"`
	Label     string                    `json:"label"`
	Grid      string                    `json:"grid"`
	Repeats   int                       `json:"repeats"`
	GoVersion string                    `json:"go_version"`
	Metrics   map[string]TrajectoryCell `json:"metrics"`
}

// TrajectoryCell compresses one experiment into the numbers worth
// trending across PRs: the min latency over repeats (the stable
// wall-clock reading), the hit rate, and whichever of the specialty
// gauges the experiment kind records.
type TrajectoryCell struct {
	LatencyMSMin float64  `json:"latency_ms_min"`
	HitRate      float64  `json:"hit_rate"`
	Rounds       int      `json:"rounds"`
	SpeedupMean  *float64 `json:"speedup,omitempty"`
	ItemsPerSec  *float64 `json:"items_per_sec,omitempty"`
	AllocsPerOp  *float64 `json:"allocs_per_op,omitempty"`
}

// Report is the BENCH_<grid>.json payload.
type Report struct {
	Schema      string       `json:"schema"`
	Grid        string       `json:"grid"`
	Repeats     int          `json:"repeats"`
	Seed        int64        `json:"seed"`
	GoVersion   string       `json:"go_version"`
	Experiments []Experiment `json:"experiments"`
}

// gridPoint is one experiment definition.
type gridPoint struct {
	kind    string
	k       int
	workers int
	cache   string
	delta   int // KindRooted
	dims    int // KindGrid
}

// grids are fixed: reproducibility means the experiment set is part of
// the format, not an invocation detail.
var grids = map[string][]gridPoint{
	"small": {
		{kind: KindCensus, k: 2, workers: 1, cache: CacheCold},
		{kind: KindCensus, k: 2, workers: 1, cache: CacheWarm},
		{kind: KindCensus, k: 2, workers: 1, cache: CacheSnapshot},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheCold},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheWarm},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheSnapshot},
		// k=3 is the latency-gate anchor: its cold runs are two orders of
		// magnitude above LatencyFloorMS, so the warm/cold ratio carries
		// signal instead of scheduler noise.
		{kind: KindCensus, k: 3, workers: 4, cache: CacheCold},
		{kind: KindCensus, k: 3, workers: 4, cache: CacheWarm},
		{kind: KindCensus, k: 3, workers: 4, cache: CacheSnapshot},
		{kind: KindPaths, k: 1},
		{kind: KindRooted, k: 2, delta: 2, cache: CacheCold},
		{kind: KindRooted, k: 2, delta: 2, cache: CacheWarm},
		{kind: KindGrid, k: 2, dims: 2, workers: 4, cache: CacheCold},
		{kind: KindGrid, k: 2, dims: 2, workers: 4, cache: CacheWarm},
		{kind: KindAlloc, k: 3},
		{kind: KindOrbit, k: 3},
		{kind: KindSealed, k: 3},
		{kind: KindSealedBuild, k: 3, workers: 1},
		{kind: KindSealedBuild, k: 3, workers: 8},
		{kind: KindSealedLoad, k: 3},
		{kind: KindBatch, k: 3},
		{kind: KindBatchSealed, k: 2},
	},
	"full": {
		{kind: KindCensus, k: 2, workers: 1, cache: CacheCold},
		{kind: KindCensus, k: 2, workers: 1, cache: CacheWarm},
		{kind: KindCensus, k: 2, workers: 1, cache: CacheSnapshot},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheCold},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheWarm},
		{kind: KindCensus, k: 2, workers: 4, cache: CacheSnapshot},
		{kind: KindCensus, k: 3, workers: 1, cache: CacheCold},
		{kind: KindCensus, k: 3, workers: 1, cache: CacheWarm},
		{kind: KindCensus, k: 3, workers: 1, cache: CacheSnapshot},
		{kind: KindCensus, k: 3, workers: 4, cache: CacheCold},
		{kind: KindCensus, k: 3, workers: 4, cache: CacheWarm},
		{kind: KindCensus, k: 3, workers: 4, cache: CacheSnapshot},
		{kind: KindCensus, k: 3, workers: 8, cache: CacheCold},
		{kind: KindCensus, k: 3, workers: 8, cache: CacheWarm},
		{kind: KindCensus, k: 3, workers: 8, cache: CacheSnapshot},
		{kind: KindPaths, k: 1},
		{kind: KindPaths, k: 2},
		{kind: KindRooted, k: 1, delta: 2, cache: CacheCold},
		{kind: KindRooted, k: 1, delta: 2, cache: CacheWarm},
		{kind: KindRooted, k: 2, delta: 2, cache: CacheCold},
		{kind: KindRooted, k: 2, delta: 2, cache: CacheWarm},
		{kind: KindGrid, k: 2, dims: 2, workers: 4, cache: CacheCold},
		{kind: KindGrid, k: 2, dims: 2, workers: 4, cache: CacheWarm},
		{kind: KindGrid, k: 2, dims: 3, workers: 4, cache: CacheCold},
		{kind: KindGrid, k: 2, dims: 3, workers: 4, cache: CacheWarm},
		{kind: KindAlloc, k: 2},
		{kind: KindAlloc, k: 3},
		{kind: KindOrbit, k: 2},
		{kind: KindOrbit, k: 3},
		{kind: KindSealed, k: 2},
		{kind: KindSealed, k: 3},
		{kind: KindSealedBuild, k: 3, workers: 1},
		{kind: KindSealedBuild, k: 3, workers: 2},
		{kind: KindSealedBuild, k: 3, workers: 8},
		{kind: KindSealedLoad, k: 3},
		{kind: KindBatch, k: 3},
		{kind: KindBatchSealed, k: 2},
		{kind: KindBatchSealed, k: 3},
	},
}

func (p gridPoint) name() string {
	switch p.kind {
	case KindPaths:
		return fmt.Sprintf("paths/k=%d", p.k)
	case KindRooted:
		return fmt.Sprintf("rooted/d=%d/k=%d/%s", p.delta, p.k, p.cache)
	case KindGrid:
		return fmt.Sprintf("grid/k=%d/d=%d/w=%d/%s", p.k, p.dims, p.workers, p.cache)
	case KindAlloc:
		return fmt.Sprintf("alloc/canonical-key/k=%d", p.k)
	case KindOrbit:
		return fmt.Sprintf("orbit/skip/k=%d", p.k)
	case KindSealed:
		return fmt.Sprintf("sealed/lookup/k=%d", p.k)
	case KindSealedBuild:
		return fmt.Sprintf("sealed/build/k=%d/w=%d", p.k, p.workers)
	case KindSealedLoad:
		return fmt.Sprintf("sealed/load/k=%d", p.k)
	case KindBatch:
		return fmt.Sprintf("batch/dedup/k=%d", p.k)
	case KindBatchSealed:
		return fmt.Sprintf("batch/sealed-multiprobe/k=%d", p.k)
	default:
		return fmt.Sprintf("census/k=%d/w=%d/%s", p.k, p.workers, p.cache)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lclbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	grid := fs.String("grid", "small", "experiment grid: small or full")
	repeats := fs.Int("repeats", 3, "independent repeats per experiment")
	seed := fs.Int64("seed", 1, "seed for the deterministic rounds workload")
	out := fs.String("out", "", "output path (default BENCH_<grid>.json)")
	validate := fs.String("validate", "", "validate a report's schema and exit")
	check := fs.String("check", "", "candidate report to gate against -baseline")
	baseline := fs.String("baseline", "", "baseline report for -check")
	tolerance := fs.Float64("tolerance", 0.25, "allowed relative warm-path regression for -check")
	trajectory := fs.String("trajectory", "", "append a compact per-run row for this grid run to the given .jsonl file")
	label := fs.String("label", "", "row label for -trajectory (e.g. the PR identifier)")
	validateTraj := fs.String("validate-trajectory", "", "validate a trajectory .jsonl file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *validateTraj != "":
		n, err := validateTrajectory(*validateTraj)
		if err != nil {
			fmt.Fprintf(stderr, "lclbench: %s: %v\n", *validateTraj, err)
			return 1
		}
		fmt.Fprintf(stdout, "lclbench: %s: schema-valid (%d rows)\n", *validateTraj, n)
		return 0

	case *validate != "":
		r, err := readReport(*validate)
		if err == nil {
			err = validateReport(r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lclbench: %s: %v\n", *validate, err)
			return 1
		}
		fmt.Fprintf(stdout, "lclbench: %s: schema-valid (%d experiments)\n", *validate, len(r.Experiments))
		return 0

	case *check != "":
		if *baseline == "" {
			fmt.Fprintln(stderr, "lclbench: -check requires -baseline")
			return 2
		}
		cand, err := readReport(*check)
		if err != nil {
			fmt.Fprintf(stderr, "lclbench: %s: %v\n", *check, err)
			return 1
		}
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "lclbench: %s: %v\n", *baseline, err)
			return 1
		}
		failures := checkRegression(base, cand, *tolerance)
		for _, f := range failures {
			fmt.Fprintf(stderr, "lclbench: FAIL: %s\n", f)
		}
		if len(failures) > 0 {
			return 1
		}
		fmt.Fprintf(stdout, "lclbench: %s holds against %s (tolerance %.0f%%)\n", *check, *baseline, *tolerance*100)
		return 0

	default:
		points, ok := grids[*grid]
		if !ok {
			fmt.Fprintf(stderr, "lclbench: unknown grid %q\n", *grid)
			return 2
		}
		if *repeats < 1 {
			fmt.Fprintln(stderr, "lclbench: -repeats must be >= 1")
			return 2
		}
		report, err := runGrid(*grid, points, *repeats, *seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "lclbench: %v\n", err)
			return 1
		}
		if err := validateReport(report); err != nil {
			fmt.Fprintf(stderr, "lclbench: self-check: %v\n", err)
			return 1
		}
		path := *out
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", *grid)
		}
		if err := writeReport(path, report); err != nil {
			fmt.Fprintf(stderr, "lclbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "lclbench: wrote %s (%d experiments x %d repeats)\n", path, len(report.Experiments), *repeats)
		if *trajectory != "" {
			if *label == "" {
				fmt.Fprintln(stderr, "lclbench: -trajectory requires -label")
				return 2
			}
			if err := appendTrajectory(*trajectory, *label, report); err != nil {
				fmt.Fprintf(stderr, "lclbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "lclbench: appended row %q to %s\n", *label, *trajectory)
		}
		return 0
	}
}

// trajectoryRow compresses a finished report into one trajectory row.
func trajectoryRow(label string, r *Report) *TrajectoryRow {
	row := &TrajectoryRow{
		Schema:    TrajectorySchemaV1,
		Label:     label,
		Grid:      r.Grid,
		Repeats:   r.Repeats,
		GoVersion: r.GoVersion,
		Metrics:   map[string]TrajectoryCell{},
	}
	for _, e := range r.Experiments {
		cell := TrajectoryCell{LatencyMSMin: e.LatencyMS.Min, HitRate: e.HitRate.Mean, Rounds: e.Rounds}
		if e.SpeedupVsMemo != nil {
			v := e.SpeedupVsMemo.Mean
			cell.SpeedupMean = &v
		}
		if e.ItemsPerSec != nil {
			v := e.ItemsPerSec.Mean
			cell.ItemsPerSec = &v
		}
		if e.AllocsPerOp != nil {
			v := e.AllocsPerOp.Mean
			cell.AllocsPerOp = &v
		}
		row.Metrics[e.Name] = cell
	}
	return row
}

// appendTrajectory appends one compact JSON line for the report to the
// trajectory file, creating it if absent. Appending the same label
// twice is refused — each PR contributes exactly one row per grid.
func appendTrajectory(path, label string, r *Report) error {
	if rows, err := readTrajectory(path); err == nil {
		for _, row := range rows {
			if row.Label == label && row.Grid == r.Grid {
				return fmt.Errorf("trajectory %s already has a %q row for grid %s", path, label, r.Grid)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	buf, err := json.Marshal(trajectoryRow(label, r))
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(buf, '\n')); err != nil {
		return err
	}
	return f.Close()
}

// readTrajectory parses every row of a trajectory .jsonl file.
func readTrajectory(path string) ([]TrajectoryRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []TrajectoryRow
	for i, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var row TrajectoryRow
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// validateTrajectory checks every row's schema and the one-row-per-
// label-per-grid invariant, returning the row count.
func validateTrajectory(path string) (int, error) {
	rows, err := readTrajectory(path)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("no rows")
	}
	seen := map[[2]string]bool{}
	for i, row := range rows {
		where := fmt.Sprintf("row %d (%s)", i+1, row.Label)
		if row.Schema != TrajectorySchemaV1 {
			return 0, fmt.Errorf("%s: schema %q, want %q", where, row.Schema, TrajectorySchemaV1)
		}
		if row.Label == "" {
			return 0, fmt.Errorf("row %d has no label", i+1)
		}
		if row.Grid == "" || row.Repeats < 1 || row.GoVersion == "" {
			return 0, fmt.Errorf("%s: incomplete provenance (grid %q, repeats %d, go %q)", where, row.Grid, row.Repeats, row.GoVersion)
		}
		if len(row.Metrics) == 0 {
			return 0, fmt.Errorf("%s: no metrics", where)
		}
		key := [2]string{row.Label, row.Grid}
		if seen[key] {
			return 0, fmt.Errorf("%s: duplicate label for grid %s", where, row.Grid)
		}
		seen[key] = true
		for name, cell := range row.Metrics {
			if cell.LatencyMSMin <= 0 {
				return 0, fmt.Errorf("%s: %s: non-positive latency", where, name)
			}
			if cell.HitRate < 0 || cell.HitRate > 1 {
				return 0, fmt.Errorf("%s: %s: hit rate %v outside [0, 1]", where, name, cell.HitRate)
			}
		}
	}
	return len(rows), nil
}

// runGrid executes every grid point in order.
func runGrid(gridName string, points []gridPoint, repeats int, seed int64, progress io.Writer) (*Report, error) {
	report := &Report{
		Schema:    SchemaV1,
		Grid:      gridName,
		Repeats:   repeats,
		Seed:      seed,
		GoVersion: runtime.Version(),
	}
	tmpDir, err := os.MkdirTemp("", "lclbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	for _, p := range points {
		exp, err := runExperiment(p, repeats, seed, tmpDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name(), err)
		}
		fmt.Fprintf(progress, "lclbench: %-24s latency %8.3fms (min %8.3fms)  hit-rate %.3f  rounds %d\n",
			exp.Name, exp.LatencyMS.Mean, exp.LatencyMS.Min, exp.HitRate.Mean, exp.Rounds)
		report.Experiments = append(report.Experiments, *exp)
	}
	return report, nil
}

// runExperiment measures one grid point over the configured repeats.
func runExperiment(p gridPoint, repeats int, seed int64, tmpDir string) (*Experiment, error) {
	exp := &Experiment{Name: p.name(), Kind: p.kind, K: p.k, Workers: p.workers, Cache: p.cache, Delta: p.delta, Dims: p.dims}
	var latencies, hitRates, allocs, speedups, lookups, buildRates, readLoads, itemRates []float64
	for rep := 0; rep < repeats; rep++ {
		var latency, hitRate, allocRate, speedup, qps, buildRate, readLoad, itemsPS float64
		var err error
		switch p.kind {
		case KindCensus:
			latency, hitRate, err = runCensusOnce(p, tmpDir)
		case KindPaths:
			latency, err = runPathsOnce(p.k)
		case KindRooted:
			latency, hitRate, err = runRootedOnce(p)
		case KindGrid:
			latency, hitRate, err = runGridOnce(p)
		case KindAlloc:
			latency, allocRate, err = runAllocOnce(p)
		case KindOrbit:
			// The skip ratio rides the HitRate distribution: it is a
			// hits-over-lookups quantity of the orbit sweep (masks
			// skipped / masks visited) and machine-independent, so the
			// existing hit-rate gate covers it.
			latency, hitRate, err = runOrbitOnce(p)
		case KindSealed:
			latency, hitRate, allocRate, speedup, qps, err = runSealedOnce(p, tmpDir)
		case KindSealedBuild:
			latency, buildRate, err = runSealedBuildOnce(p, tmpDir)
		case KindSealedLoad:
			latency, readLoad, err = runSealedLoadOnce(p, tmpDir)
		case KindBatch:
			latency, hitRate, speedup, itemsPS, err = runBatchOnce(p)
		case KindBatchSealed:
			latency, hitRate, allocRate, itemsPS, err = runBatchSealedOnce(p, tmpDir)
		}
		if err != nil {
			return nil, err
		}
		latencies = append(latencies, latency)
		hitRates = append(hitRates, hitRate)
		allocs = append(allocs, allocRate)
		speedups = append(speedups, speedup)
		lookups = append(lookups, qps)
		buildRates = append(buildRates, buildRate)
		readLoads = append(readLoads, readLoad)
		itemRates = append(itemRates, itemsPS)
	}
	exp.LatencyMS = summarize(latencies)
	exp.HitRate = summarize(hitRates)
	exp.Rounds = roundsMetric(p.k, seed)
	if p.kind == KindAlloc || p.kind == KindSealed || p.kind == KindBatchSealed {
		d := summarize(allocs)
		exp.AllocsPerOp = &d
	}
	if p.kind == KindSealed {
		s := summarize(speedups)
		exp.SpeedupVsMemo = &s
		q := summarize(lookups)
		exp.LookupsPerSec = &q
	}
	if p.kind == KindBatch {
		s := summarize(speedups)
		exp.SpeedupVsMemo = &s
	}
	if p.kind == KindBatch || p.kind == KindBatchSealed {
		d := summarize(itemRates)
		exp.ItemsPerSec = &d
	}
	if p.kind == KindSealedBuild {
		exp.Cores = runtime.NumCPU()
		d := summarize(buildRates)
		exp.BuildRepsPerSec = &d
	}
	if p.kind == KindSealedLoad {
		d := summarize(readLoads)
		exp.LoadReadFileMS = &d
	}
	return exp, nil
}

// runSealedBuildOnce runs one full sharded file build of the k-letter
// cycle space at the configured worker count and returns (latency ms,
// orbit representatives classified per second). The timestamp is
// pinned so repeated builds are byte-identical, making the experiment
// double as an end-to-end determinism probe.
func runSealedBuildOnce(p gridPoint, tmpDir string) (float64, float64, error) {
	path := filepath.Join(tmpDir, fmt.Sprintf("build-k%d-w%d.lclseal", p.k, p.workers))
	start := time.Now()
	res, err := service.BuildSealedFile(path, service.SealConfig{
		CycleKs:     []int{p.k},
		Workers:     p.workers,
		CreatedUnix: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	if res.Entries == 0 {
		return 0, 0, fmt.Errorf("sealed build for k=%d produced no entries", p.k)
	}
	secs := elapsed.Seconds()
	if secs <= 0 {
		return 0, 0, fmt.Errorf("sealed build too fast to time (%v)", elapsed)
	}
	return float64(elapsed) / float64(time.Millisecond), float64(res.Entries) / secs, nil
}

// runSealedLoadOnce builds one artifact, then times both serving
// loads: the mmap zero-copy open (returned as the latency) and the
// portable ReadFile load it falls back to. Both tables are probed once
// so a load that validated but cannot serve fails here, not in
// production.
func runSealedLoadOnce(p gridPoint, tmpDir string) (float64, float64, error) {
	path := filepath.Join(tmpDir, fmt.Sprintf("load-k%d.lclseal", p.k))
	if _, err := os.Stat(path); os.IsNotExist(err) {
		sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{p.k}})
		if err != nil {
			return 0, 0, err
		}
		sealed.CreatedUnix = 1
		if _, err := store.SaveSealed(path, sealed); err != nil {
			return 0, 0, err
		}
	}
	probe := func(t *store.SealedTable) error {
		for _, sec := range t.Sections() {
			if sec.Entries == 0 {
				return fmt.Errorf("section %s loaded empty", sec.Name)
			}
		}
		return nil
	}
	start := time.Now()
	mapped, err := store.OpenSealedMapped(path)
	if err != nil {
		return 0, 0, err
	}
	mmapMS := float64(time.Since(start)) / float64(time.Millisecond)
	if err := probe(mapped); err != nil {
		return 0, 0, err
	}
	defer mapped.Close()
	start = time.Now()
	heap, err := store.LoadSealed(path)
	if err != nil {
		return 0, 0, err
	}
	readMS := float64(time.Since(start)) / float64(time.Millisecond)
	if err := probe(heap); err != nil {
		return 0, 0, err
	}
	return mmapMS, readMS, nil
}

// runSealedOnce builds a sealed landscape table over the k-letter cycle
// mask space via the real artifact path (BuildSealed -> SaveSealed ->
// LoadSealed), then races the two warm tiers over identical coverage:
//
//   - warm memo-hit serving: a real engine with a pre-warmed cache,
//     Classify over every mask problem in the space — the path a
//     repeat request takes today;
//   - sealed lookup: SealedTable.Get over every sealed key — the path
//     the same request takes with -sealed loaded (one hash + one
//     probe; the fingerprint and response wrap are common to both).
//
// Returns (sealed sweep latency ms, sealed hit rate, sealed allocs/op,
// warm-vs-sealed speedup, sealed lookups/sec).
func runSealedOnce(p gridPoint, tmpDir string) (float64, float64, float64, float64, float64, error) {
	sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{p.k}})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	path := filepath.Join(tmpDir, fmt.Sprintf("k%d.lclseal", p.k))
	if _, err := store.SaveSealed(path, sealed); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	var keys []uint64
	for _, sec := range sealed.Sections {
		for _, e := range sec.Entries {
			keys = append(keys, memo.Key(sec.Domain, e.Fingerprint))
		}
	}
	if len(keys) == 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("sealed table for k=%d is empty", p.k)
	}

	// Warm memo-hit baseline: every mask problem through a real engine,
	// second pass timed (every request is a cache hit).
	engine := service.New(service.Config{DisableObs: true})
	defer engine.Close()
	maskSpace := uint(1) << uint(enumerate.PairCount(p.k))
	var reqs []service.Request
	for n2 := uint(0); n2 < maskSpace; n2++ {
		for e := uint(0); e < maskSpace; e++ {
			reqs = append(reqs, service.Request{Mode: service.ModeCycles, Problem: enumerate.FromMasks(p.k, n2, e)})
		}
	}
	warm := func() (time.Duration, error) {
		start := time.Now()
		for i := range reqs {
			resp, err := engine.Classify(reqs[i])
			if err != nil {
				return 0, err
			}
			_ = resp
		}
		return time.Since(start), nil
	}
	if _, err := warm(); err != nil { // warming pass: fills the cache
		return 0, 0, 0, 0, 0, err
	}
	warmElapsed, err := warm() // timed pass: all memo hits
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	warmNsPerOp := float64(warmElapsed.Nanoseconds()) / float64(len(reqs))

	// Sealed sweep: enough passes over the key set to time reliably.
	iters := (1 << 20) / len(keys)
	if iters < 1 {
		iters = 1
	}
	ops := iters * len(keys)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, k := range keys {
			if _, ok := tbl.Get(k); !ok {
				return 0, 0, 0, 0, 0, fmt.Errorf("sealed key %016x missed its own table", k)
			}
		}
	}
	sealedElapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	sealedNsPerOp := float64(sealedElapsed.Nanoseconds()) / float64(ops)
	if sealedNsPerOp <= 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("sealed sweep too fast to time (%d ops in %v)", ops, sealedElapsed)
	}
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	speedup := warmNsPerOp / sealedNsPerOp
	qps := 1e9 / sealedNsPerOp
	return float64(sealedElapsed) / float64(time.Millisecond), 1.0, allocsPerOp, speedup, qps, nil
}

// batchBenchRequests builds a batch workload over the k-letter cycle
// mask space: distinct problems in deterministic mask order, each
// repeated copies times with the *lcl.Problem pointer shared — the
// shape the HTTP handler produces for byte-identical payloads, so the
// pipeline's identity prefilter can skip repeat canonicalization the
// way it does in production.
func batchBenchRequests(k, distinct, copies int) []service.Request {
	space := uint(1) << uint(enumerate.PairCount(k))
	reqs := make([]service.Request, 0, distinct*copies)
	made := 0
	for n2 := uint(0); n2 < space && made < distinct; n2++ {
		for e := uint(0); e < space && made < distinct; e++ {
			p := enumerate.FromMasks(k, n2, e)
			for c := 0; c < copies; c++ {
				reqs = append(reqs, service.Request{Mode: service.ModeCycles, Problem: p})
			}
			made++
		}
	}
	return reqs
}

// runBatchOnce races the vectorized batch pipeline against a per-item
// Classify loop over the same warm engine and the same duplicate-heavy
// request set (256 distinct problems x 8 copies = 87.5% of items repeat
// an earlier one, clearing the >= 50%-shared acceptance shape). Both
// paths serve every unique problem from the memo; the batch path
// additionally dedups repeats and amortizes the cache probes, which is
// the >= 3x it is gated on. The work is split into batchRounds
// alternating per-item/batch rounds, so a scheduler hiccup skews one
// round's ratio rather than the whole sample; the recorded speedup is
// the median round ratio. Returns (batch sweep latency ms, memo hit
// rate of the batch sweeps, median per-item/batch speedup, batch
// items/sec).
func runBatchOnce(p gridPoint) (float64, float64, float64, float64, error) {
	const (
		distinct = 256
		copies   = 8
	)
	reqs := batchBenchRequests(p.k, distinct, copies)
	engine := service.New(service.Config{DisableObs: true})
	defer engine.Close()
	bt := engine.NewBatch()
	defer bt.Release()
	ctx := context.Background()
	// Warming pass: fills the memo so both timed paths serve hits.
	for _, item := range bt.Classify(ctx, reqs) {
		if item.Err != nil {
			return 0, 0, 0, 0, item.Err
		}
	}
	iters := max((1<<18)/len(reqs)/batchRounds, 1)
	ops := batchRounds * iters * len(reqs)

	var batch time.Duration
	var ratios []float64
	var sweeps memo.Stats // hits and misses of the batch sweeps alone
	for r := 0; r < batchRounds; r++ {
		start := time.Now()
		for it := 0; it < iters; it++ {
			for i := range reqs {
				if _, err := engine.Classify(reqs[i]); err != nil {
					return 0, 0, 0, 0, err
				}
			}
		}
		perItem := time.Since(start)

		before := engine.Stats().Cache
		start = time.Now()
		for it := 0; it < iters; it++ {
			for _, item := range bt.Classify(ctx, reqs) {
				if item.Err != nil {
					return 0, 0, 0, 0, item.Err
				}
			}
		}
		round := time.Since(start)
		after := engine.Stats().Cache
		sweeps.Hits += after.Hits - before.Hits
		sweeps.Misses += after.Misses - before.Misses
		if round <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("batch sweep too fast to time (%d items in %v)", iters*len(reqs), round)
		}
		batch += round
		ratios = append(ratios, float64(perItem)/float64(round))
	}
	return float64(batch) / float64(time.Millisecond), hitRateDelta(memo.Stats{}, sweeps), median(ratios), float64(ops) / batch.Seconds(), nil
}

// batchRounds is how many alternating per-item/batch rounds
// runBatchOnce splits its work into.
const batchRounds = 8

// median returns the middle value of xs (the mean of the two middle
// values for even lengths), leaving xs unmodified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runBatchSealedOnce times batch serving entirely out of the sealed
// tier: the full k-letter mask space is sealed via the real artifact
// path, then a unique-heavy batch covering that whole space is served
// repeatedly from one reused Batch. The warming pass doubles as the
// coverage check (every item must come back Sealed); the timed loop is
// bracketed by ReadMemStats so AllocsPerOp counts real heap allocations
// per served item — the tier's contract is 0. Returns (batch sweep
// latency ms, sealed hit rate, allocs per item, items/sec).
func runBatchSealedOnce(p gridPoint, tmpDir string) (float64, float64, float64, float64, error) {
	path := filepath.Join(tmpDir, fmt.Sprintf("batch-k%d.lclseal", p.k))
	if _, err := os.Stat(path); os.IsNotExist(err) {
		sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{p.k}})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		sealed.CreatedUnix = 1
		if _, err := store.SaveSealed(path, sealed); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	tbl, err := store.LoadSealed(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	engine := service.New(service.Config{DisableObs: true, Sealed: tbl})
	defer engine.Close()
	space := 1 << uint(enumerate.PairCount(p.k))
	reqs := batchBenchRequests(p.k, space*space, 1)
	bt := engine.NewBatch()
	defer bt.Release()
	ctx := context.Background()
	for i, item := range bt.Classify(ctx, reqs) {
		if item.Err != nil {
			return 0, 0, 0, 0, item.Err
		}
		if !item.Response.Sealed {
			return 0, 0, 0, 0, fmt.Errorf("item %d not served from the sealed tier", i)
		}
	}
	iters := (1 << 18) / len(reqs)
	if iters < 1 {
		iters = 1
	}
	ops := iters * len(reqs)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, item := range bt.Classify(ctx, reqs) {
			if item.Err != nil {
				return 0, 0, 0, 0, item.Err
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	secs := elapsed.Seconds()
	if secs <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("sealed batch sweep too fast to time (%d items in %v)", ops, elapsed)
	}
	allocsPerItem := float64(after.Mallocs-before.Mallocs) / float64(ops)
	return float64(elapsed) / float64(time.Millisecond), 1.0, allocsPerItem, float64(ops) / secs, nil
}

// runAllocOnce sweeps the whole (node, edge) mask space through the
// orbit-table CanonicalKey, measuring wall time and heap allocations
// per call. The orbit tables are warmed before measuring — table
// construction is a once-per-process cost, not a per-call one — so the
// expected reading is exactly 0.
func runAllocOnce(p gridPoint) (float64, float64, error) {
	total := uint(1) << uint(enumerate.PairCount(p.k))
	enumerate.CanonicalKey(p.k, 0, 0) // build the tables outside the window
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for n2 := uint(0); n2 < total; n2++ {
		for e := uint(0); e < total; e++ {
			cn, ce := enumerate.CanonicalKey(p.k, n2, e)
			if cn > n2 || (cn == n2 && ce > e) {
				return 0, 0, fmt.Errorf("CanonicalKey(%d, %d, %d) = (%d, %d) is not the orbit minimum", p.k, n2, e, cn, ce)
			}
			ops++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(time.Millisecond), float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// runOrbitOnce times the orbit-representative enumeration sweep: every
// mask pair is tested for canonicity and representatives accumulate
// their orbit sizes. The orbit sizes must tile the raw space exactly;
// the returned ratio is the fraction of mask pairs the census skips.
func runOrbitOnce(p gridPoint) (float64, float64, error) {
	tbl := canon.Orbits(p.k)
	total := uint(1) << uint(enumerate.PairCount(p.k))
	start := time.Now()
	reps, raw := 0, 0
	for n2 := uint(0); n2 < total; n2++ {
		for e := uint(0); e < total; e++ {
			if tbl.IsCanonicalPair(n2, e) {
				reps++
				raw += tbl.PairOrbitSize(n2, e)
			}
		}
	}
	elapsed := time.Since(start)
	if raw != int(total)*int(total) {
		return 0, 0, fmt.Errorf("orbit sizes cover %d of %d raw mask pairs", raw, int(total)*int(total))
	}
	skip := 1 - float64(reps)/(float64(total)*float64(total))
	return float64(elapsed) / float64(time.Millisecond), skip, nil
}

// runCensusOnce runs one timed census according to the cache state and
// returns the latency in milliseconds plus the memo hit rate of the
// timed run.
func runCensusOnce(p gridPoint, tmpDir string) (float64, float64, error) {
	cache := memo.New(0, 0)
	switch p.cache {
	case CacheCold:
		// fresh cache, nothing to do
	case CacheWarm:
		if _, err := enumerate.RunWith(p.k, true, enumerate.RunOpts{Workers: p.workers, Cache: cache}); err != nil {
			return 0, 0, err
		}
	case CacheSnapshot:
		// Warm a scratch cache, persist it, and re-load into the cache
		// the timed run uses — the lclserver restart path.
		scratch := memo.New(0, 0)
		if _, err := enumerate.RunWith(p.k, true, enumerate.RunOpts{Workers: p.workers, Cache: scratch}); err != nil {
			return 0, 0, err
		}
		exported, stats := scratch.Export()
		records, _ := store.EncodeMemo(exported)
		snap := &store.Snapshot{
			CreatedUnix: 1,
			Memo:        records,
			MemoStats:   store.MemoStats{Hits: stats.Hits, Misses: stats.Misses, Evictions: stats.Evictions, Puts: stats.Puts},
		}
		path := filepath.Join(tmpDir, fmt.Sprintf("k%dw%d.lclsnap", p.k, p.workers))
		if _, err := store.Save(path, snap); err != nil {
			return 0, 0, err
		}
		loaded, err := store.Load(path)
		if err != nil {
			return 0, 0, err
		}
		entries, err := store.DecodeMemo(loaded.Memo)
		if err != nil {
			return 0, 0, err
		}
		cache.Import(entries, memo.Stats{})
	default:
		return 0, 0, fmt.Errorf("unknown cache state %q", p.cache)
	}

	before := cache.Stats()
	start := time.Now()
	if _, err := enumerate.RunWith(p.k, true, enumerate.RunOpts{Workers: p.workers, Cache: cache}); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(time.Millisecond), hitRateDelta(before, cache.Stats()), nil
}

// runPathsOnce times one full path census.
func runPathsOnce(k int) (float64, error) {
	start := time.Now()
	if _, err := enumerate.RunPaths(k); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// rootedBenchRadius is the anonymous-synthesis bound of the rooted
// experiments; part of the reproducible format, like the grids.
const rootedBenchRadius = 1

// runRootedOnce times one rooted census with the service layer's
// per-problem memoization discipline (memo.Key over the rooted decider
// domain); warm runs replay the census against a pre-populated cache.
func runRootedOnce(p gridPoint) (float64, float64, error) {
	cache := memo.New(0, 0)
	opts := rooted.CensusOpts{
		MaxRadius: rootedBenchRadius,
		// The service layer's memoizing wrapper: the bench times the
		// production discipline, not a re-implementation of it.
		Classify: service.RootedMemoClassifier(cache, rootedBenchRadius),
	}
	if p.cache == CacheWarm {
		if _, err := rooted.RunCensus(p.delta, p.k, opts); err != nil {
			return 0, 0, err
		}
	}
	before := cache.Stats()
	start := time.Now()
	if _, err := rooted.RunCensus(p.delta, p.k, opts); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	after := cache.Stats()
	return float64(elapsed) / float64(time.Millisecond), hitRateDelta(before, after), nil
}

// gridBenchRequests is the oriented-grid workload: every input-free
// k-letter problem over the degree-2*dims node-multiset space crossed
// with the edge-pair space, classified in "grid" mode. The node
// configurations have the torus degree, so every request runs the real
// rules (line relaxation, product-tiling search, zero-round check) —
// k=2 dims=2 gives 2^5 node masks x 2^3 edge masks = 256 problems.
func gridBenchRequests(k, dims int) []service.Request {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	// All cardinality-(2*dims) multisets over the k labels, fixed order.
	var multisets [][]string
	var rec func(chosen []string, from int)
	rec = func(chosen []string, from int) {
		if len(chosen) == 2*dims {
			multisets = append(multisets, append([]string(nil), chosen...))
			return
		}
		for i := from; i < k; i++ {
			rec(append(chosen, names[i]), i)
		}
	}
	rec(nil, 0)
	var pairs [][2]string
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			pairs = append(pairs, [2]string{names[i], names[j]})
		}
	}
	var reqs []service.Request
	for nm := uint(0); nm < uint(1)<<uint(len(multisets)); nm++ {
		for em := uint(0); em < uint(1)<<uint(len(pairs)); em++ {
			b := lcl.NewBuilder(fmt.Sprintf("gridbench-k%d-d%d-N%d-E%d", k, dims, nm, em), nil, names)
			for i, m := range multisets {
				if nm&(1<<uint(i)) != 0 {
					b.Node(m...)
				}
			}
			for i, pr := range pairs {
				if em&(1<<uint(i)) != 0 {
					b.Edge(pr[0], pr[1])
				}
			}
			reqs = append(reqs, service.Request{Problem: b.MustBuild(), Mode: "grid", Dims: dims})
		}
	}
	return reqs
}

// runGridOnce times the oriented-grid workload through a real service
// engine, exercising registry dispatch, memoization, and the batch
// worker pool end to end.
func runGridOnce(p gridPoint) (float64, float64, error) {
	e := service.New(service.Config{Workers: p.workers})
	defer e.Close()
	reqs := gridBenchRequests(p.k, p.dims)
	if p.cache == CacheWarm {
		for _, item := range e.ClassifyBatch(reqs) {
			if item.Err != nil {
				return 0, 0, item.Err
			}
		}
	}
	before := e.Stats().Cache
	start := time.Now()
	for _, item := range e.ClassifyBatch(reqs) {
		if item.Err != nil {
			return 0, 0, item.Err
		}
	}
	elapsed := time.Since(start)
	after := e.Stats().Cache
	return float64(elapsed) / float64(time.Millisecond), hitRateDelta(before, after), nil
}

// hitRateDelta computes hits / lookups between two cache snapshots.
func hitRateDelta(before, after memo.Stats) float64 {
	lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
	if lookups == 0 {
		return 0
	}
	return float64(after.Hits-before.Hits) / float64(lookups)
}

// roundsMetric is the deterministic complexity anchor: LOCAL Linial
// 3-coloring on a path of 1024·k nodes with seed-derived IDs. Identical
// inputs give identical rounds on every machine, so the checker compares
// it for exact equality.
func roundsMetric(k int, seed int64) int {
	n := 1024 * k
	rng := rand.New(rand.NewSource(seed))
	res, err := local.Run(graph.Path(n), local.NewColoring(3), local.RunOpts{IDs: local.RandomIDs(n, rng)})
	if err != nil {
		// The Linial machine on a path cannot fail; treat it as the
		// regression it would be.
		return -1
	}
	return res.Rounds
}

func summarize(samples []float64) Dist {
	return obs.Summarize(samples)
}

// validateReport checks the schema invariants the regression gate
// relies on.
func validateReport(r *Report) error {
	if r.Schema != SchemaV1 {
		return fmt.Errorf("schema %q, want %q", r.Schema, SchemaV1)
	}
	if r.Repeats < 1 {
		return fmt.Errorf("repeats %d < 1", r.Repeats)
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	seen := map[string]bool{}
	for i, e := range r.Experiments {
		where := fmt.Sprintf("experiment %d (%s)", i, e.Name)
		if e.Name == "" {
			return fmt.Errorf("experiment %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		seen[e.Name] = true
		switch e.Kind {
		case KindCensus, KindPaths, KindRooted, KindGrid, KindAlloc, KindOrbit, KindSealed, KindSealedBuild, KindSealedLoad, KindBatch, KindBatchSealed:
		default:
			return fmt.Errorf("%s: unknown kind %q", where, e.Kind)
		}
		maxK := 3
		switch e.Kind {
		case KindRooted:
			maxK = 2
		case KindAlloc, KindOrbit, KindSealedBuild, KindSealedLoad:
			maxK = 4 // bounded by the orbit tables, not the census
		}
		if e.K < 1 || e.K > maxK {
			return fmt.Errorf("%s: k = %d out of range", where, e.K)
		}
		switch e.Kind {
		case KindCensus:
			switch e.Cache {
			case CacheCold, CacheWarm, CacheSnapshot:
			default:
				return fmt.Errorf("%s: unknown cache state %q", where, e.Cache)
			}
			if e.Workers < 1 {
				return fmt.Errorf("%s: workers %d < 1", where, e.Workers)
			}
		case KindRooted:
			if e.Cache != CacheCold && e.Cache != CacheWarm {
				return fmt.Errorf("%s: rooted cache state %q", where, e.Cache)
			}
			if e.Delta < 1 || e.Delta > 3 {
				return fmt.Errorf("%s: delta = %d out of range", where, e.Delta)
			}
		case KindGrid:
			if e.Cache != CacheCold && e.Cache != CacheWarm {
				return fmt.Errorf("%s: grid cache state %q", where, e.Cache)
			}
			if e.Dims < 1 || e.Dims > 3 {
				return fmt.Errorf("%s: dims = %d out of range", where, e.Dims)
			}
			if e.Workers < 1 {
				return fmt.Errorf("%s: workers %d < 1", where, e.Workers)
			}
		case KindAlloc:
			if e.Cache != "" {
				return fmt.Errorf("%s: alloc experiments take no cache state, got %q", where, e.Cache)
			}
			if e.AllocsPerOp == nil {
				return fmt.Errorf("%s: alloc experiment missing allocs_per_op", where)
			}
			if len(e.AllocsPerOp.Samples) != r.Repeats {
				return fmt.Errorf("%s: allocs_per_op has %d samples, want %d", where, len(e.AllocsPerOp.Samples), r.Repeats)
			}
			// The invariant the experiment exists for: the orbit-table
			// canonical key allocates nothing per call (sub-1 readings
			// tolerate stray runtime mallocs inside the measuring window).
			if e.AllocsPerOp.Mean >= 1 {
				return fmt.Errorf("%s: %.3f allocs/op on the zero-allocation path", where, e.AllocsPerOp.Mean)
			}
		case KindOrbit:
			if e.Cache != "" {
				return fmt.Errorf("%s: orbit experiments take no cache state, got %q", where, e.Cache)
			}
			if e.HitRate.Mean <= 0 {
				return fmt.Errorf("%s: orbit sweep skipped nothing", where)
			}
		case KindSealed:
			if e.Cache != "" {
				return fmt.Errorf("%s: sealed experiments take no cache state, got %q", where, e.Cache)
			}
			if e.AllocsPerOp == nil {
				return fmt.Errorf("%s: sealed experiment missing allocs_per_op", where)
			}
			if len(e.AllocsPerOp.Samples) != r.Repeats {
				return fmt.Errorf("%s: allocs_per_op has %d samples, want %d", where, len(e.AllocsPerOp.Samples), r.Repeats)
			}
			// The tier's contract: a sealed hit allocates nothing (sub-1
			// readings tolerate stray runtime mallocs inside the window).
			if e.AllocsPerOp.Mean >= 1 {
				return fmt.Errorf("%s: %.3f allocs/op on the sealed lookup path", where, e.AllocsPerOp.Mean)
			}
			if e.SpeedupVsMemo == nil {
				return fmt.Errorf("%s: sealed experiment missing speedup_vs_memo", where)
			}
			// The reason the tier exists: >= 10x under the warm memo-hit
			// serving path (fingerprint + lock + LRU + wrap).
			if e.SpeedupVsMemo.Mean < 10 {
				return fmt.Errorf("%s: sealed lookup only %.1fx faster than the warm memo-hit path, want >= 10x", where, e.SpeedupVsMemo.Mean)
			}
			if e.LookupsPerSec == nil {
				return fmt.Errorf("%s: sealed experiment missing lookups_per_sec", where)
			}
			if e.LookupsPerSec.Mean < 1e6 {
				return fmt.Errorf("%s: sealed lookup throughput %.0f/s below the multi-million-QPS bar", where, e.LookupsPerSec.Mean)
			}
			if e.HitRate.Mean != 1 {
				return fmt.Errorf("%s: sealed sweep hit rate %v, want exactly 1", where, e.HitRate.Mean)
			}
		case KindSealedBuild:
			if e.Cache != "" {
				return fmt.Errorf("%s: sealed-build experiments take no cache state, got %q", where, e.Cache)
			}
			if e.Workers < 1 {
				return fmt.Errorf("%s: workers %d < 1", where, e.Workers)
			}
			if e.Cores < 1 {
				return fmt.Errorf("%s: cores %d < 1", where, e.Cores)
			}
			if e.BuildRepsPerSec == nil {
				return fmt.Errorf("%s: sealed-build experiment missing build_reps_per_sec", where)
			}
			if len(e.BuildRepsPerSec.Samples) != r.Repeats {
				return fmt.Errorf("%s: build_reps_per_sec has %d samples, want %d", where, len(e.BuildRepsPerSec.Samples), r.Repeats)
			}
			if e.BuildRepsPerSec.Mean <= 0 {
				return fmt.Errorf("%s: non-positive build throughput", where)
			}
		case KindSealedLoad:
			if e.Cache != "" {
				return fmt.Errorf("%s: sealed-load experiments take no cache state, got %q", where, e.Cache)
			}
			if e.LoadReadFileMS == nil {
				return fmt.Errorf("%s: sealed-load experiment missing load_readfile_ms", where)
			}
			if len(e.LoadReadFileMS.Samples) != r.Repeats {
				return fmt.Errorf("%s: load_readfile_ms has %d samples, want %d", where, len(e.LoadReadFileMS.Samples), r.Repeats)
			}
			if e.LoadReadFileMS.Min <= 0 {
				return fmt.Errorf("%s: non-positive ReadFile load latency", where)
			}
		case KindBatch:
			if e.Cache != "" {
				return fmt.Errorf("%s: batch experiments take no cache state, got %q", where, e.Cache)
			}
			if e.SpeedupVsMemo == nil {
				return fmt.Errorf("%s: batch experiment missing speedup_vs_memo", where)
			}
			if len(e.SpeedupVsMemo.Samples) != r.Repeats {
				return fmt.Errorf("%s: speedup_vs_memo has %d samples, want %d", where, len(e.SpeedupVsMemo.Samples), r.Repeats)
			}
			// The pipeline's acceptance bar: the duplicate-heavy batch must
			// clear 3x the per-item loop on the same warm engine, taken
			// over the median repeat so one noisy repeat cannot decide it.
			if m := median(e.SpeedupVsMemo.Samples); m < 3 {
				return fmt.Errorf("%s: batch pipeline only %.1fx faster than the per-item loop (median of %d repeats), want >= 3x", where, m, len(e.SpeedupVsMemo.Samples))
			}
			if e.ItemsPerSec == nil || e.ItemsPerSec.Mean <= 0 {
				return fmt.Errorf("%s: batch experiment missing items_per_sec", where)
			}
			// Warm sweep: every unique item is a memo hit.
			if e.HitRate.Mean != 1 {
				return fmt.Errorf("%s: warm batch hit rate %v, want exactly 1", where, e.HitRate.Mean)
			}
		case KindBatchSealed:
			if e.Cache != "" {
				return fmt.Errorf("%s: sealed-batch experiments take no cache state, got %q", where, e.Cache)
			}
			if e.AllocsPerOp == nil {
				return fmt.Errorf("%s: sealed-batch experiment missing allocs_per_op", where)
			}
			if len(e.AllocsPerOp.Samples) != r.Repeats {
				return fmt.Errorf("%s: allocs_per_op has %d samples, want %d", where, len(e.AllocsPerOp.Samples), r.Repeats)
			}
			// The tier's contract: a batched sealed hit allocates nothing
			// per item (sub-1 readings tolerate stray runtime mallocs
			// inside the measuring window).
			if e.AllocsPerOp.Mean >= 1 {
				return fmt.Errorf("%s: %.3f allocs/item on the batched sealed serving path", where, e.AllocsPerOp.Mean)
			}
			if e.ItemsPerSec == nil || e.ItemsPerSec.Mean <= 0 {
				return fmt.Errorf("%s: sealed-batch experiment missing items_per_sec", where)
			}
			if e.HitRate.Mean != 1 {
				return fmt.Errorf("%s: sealed batch sweep hit rate %v, want exactly 1", where, e.HitRate.Mean)
			}
		}
		for _, d := range []struct {
			name string
			dist Dist
		}{{"latency_ms", e.LatencyMS}, {"hit_rate", e.HitRate}} {
			if len(d.dist.Samples) != r.Repeats {
				return fmt.Errorf("%s: %s has %d samples, want %d", where, d.name, len(d.dist.Samples), r.Repeats)
			}
			if d.dist.Min > d.dist.Mean+1e-9 || d.dist.Std < 0 {
				return fmt.Errorf("%s: %s summary inconsistent: %+v", where, d.name, d.dist)
			}
		}
		if e.LatencyMS.Min <= 0 {
			return fmt.Errorf("%s: non-positive latency", where)
		}
		if e.HitRate.Mean < 0 || e.HitRate.Mean > 1 {
			return fmt.Errorf("%s: hit rate %v outside [0, 1]", where, e.HitRate.Mean)
		}
		if (e.Cache == CacheWarm || e.Cache == CacheSnapshot) && e.HitRate.Mean == 0 {
			return fmt.Errorf("%s: warm experiment recorded no cache hits", where)
		}
		if e.Rounds <= 0 {
			return fmt.Errorf("%s: rounds %d <= 0", where, e.Rounds)
		}
	}
	// Worker-scaling gate: with 8 workers genuinely runnable (>= 8
	// cores), the sharded build must classify at least sealedBuildScaleup
	// times faster than single-threaded. On smaller machines the ratio
	// measures oversubscription, not the builder, so the gate is
	// conditional on the recorded core count.
	builds := map[[2]int]*Experiment{}
	for i := range r.Experiments {
		e := &r.Experiments[i]
		if e.Kind == KindSealedBuild {
			builds[[2]int{e.K, e.Workers}] = e
		}
	}
	for key, wide := range builds {
		if key[1] != 8 || wide.Cores < 8 {
			continue
		}
		one, ok := builds[[2]int{key[0], 1}]
		if !ok {
			continue
		}
		if ratio := wide.BuildRepsPerSec.Mean / one.BuildRepsPerSec.Mean; ratio < sealedBuildScaleup {
			return fmt.Errorf("sealed build k=%d scales only %.1fx from 1 to 8 workers on %d cores, want >= %.0fx",
				key[0], ratio, wide.Cores, sealedBuildScaleup)
		}
	}
	return nil
}

// sealedBuildScaleup is the 1-to-8-worker throughput multiple the
// sharded builder must clear on machines with >= 8 cores.
const sealedBuildScaleup = 4.0

// LatencyFloorMS exempts experiments whose cold run is too fast to time
// reliably from the latency-ratio gate: below this floor, scheduler
// jitter on a shared CI runner swamps the warm/cold signal. Sub-floor
// experiments are still gated on their machine-independent metrics
// (rounds, hit rate). The floor is 3ms — the orbit-representative
// census dropped the k=3 cold sweep under the old 20ms floor, and the
// gate compares min latencies over repeats, which are stable well below
// that.
const LatencyFloorMS = 3.0

// checkRegression gates a candidate report against a baseline. Returned
// failures are human-readable; empty means the gate passes.
//
// Machine-independent quantities are gated strictly: the rounds metric
// must match exactly and the hit rate must not drop by more than 0.05.
// Wall-clock latency is gated via the normalized warm-path cost: for
// every warm (and snapshot) experiment, its min-latency ratio to the
// sibling cold experiment must not exceed the baseline's ratio by more
// than tolerance (relative), with a 0.05 absolute allowance for noise.
// The ratio check applies only when both reports' cold runs clear
// LatencyFloorMS.
func checkRegression(base, cand *Report, tolerance float64) []string {
	var failures []string
	if err := validateReport(base); err != nil {
		return []string{fmt.Sprintf("baseline invalid: %v", err)}
	}
	if err := validateReport(cand); err != nil {
		return []string{fmt.Sprintf("candidate invalid: %v", err)}
	}
	candByName := map[string]*Experiment{}
	for i := range cand.Experiments {
		candByName[cand.Experiments[i].Name] = &cand.Experiments[i]
	}
	coldOf := func(r *Report, e Experiment) *Experiment {
		want := gridPoint{kind: e.Kind, k: e.K, workers: e.Workers, cache: CacheCold, delta: e.Delta, dims: e.Dims}.name()
		for i := range r.Experiments {
			if r.Experiments[i].Name == want {
				return &r.Experiments[i]
			}
		}
		return nil
	}
	for _, b := range base.Experiments {
		c, ok := candByName[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from candidate", b.Name))
			continue
		}
		if c.Rounds != b.Rounds {
			failures = append(failures, fmt.Sprintf("%s: rounds %d, baseline %d (deterministic metric must match exactly)", b.Name, c.Rounds, b.Rounds))
		}
		if b.HitRate.Mean > 0 && c.HitRate.Mean < b.HitRate.Mean-0.05 {
			failures = append(failures, fmt.Sprintf("%s: hit rate %.3f, baseline %.3f", b.Name, c.HitRate.Mean, b.HitRate.Mean))
		}
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil && c.AllocsPerOp.Mean > b.AllocsPerOp.Mean+0.05 {
			failures = append(failures, fmt.Sprintf("%s: %.3f allocs/op, baseline %.3f (zero-allocation invariant)", b.Name, c.AllocsPerOp.Mean, b.AllocsPerOp.Mean))
		}
		if b.Cache == CacheWarm || b.Cache == CacheSnapshot {
			bCold, cCold := coldOf(base, b), coldOf(cand, *c)
			if bCold == nil || cCold == nil {
				failures = append(failures, fmt.Sprintf("%s: no cold sibling to normalize against", b.Name))
				continue
			}
			if bCold.LatencyMS.Min < LatencyFloorMS || cCold.LatencyMS.Min < LatencyFloorMS {
				continue // too fast to time reliably; rounds + hit rate gate it
			}
			baseRatio := b.LatencyMS.Min / bCold.LatencyMS.Min
			candRatio := c.LatencyMS.Min / cCold.LatencyMS.Min
			if candRatio > baseRatio*(1+tolerance)+0.05 {
				failures = append(failures, fmt.Sprintf(
					"%s: warm-path latency regressed: warm/cold ratio %.3f vs baseline %.3f (tolerance %.0f%%)",
					b.Name, candRatio, baseRatio, tolerance*100))
			}
		}
	}
	sort.Strings(failures)
	return failures
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	return &r, nil
}

func writeReport(path string, r *Report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
