// Command perfbench is the repository's serving benchmark. It drives
// service.NewHandler(engine).ServeHTTP in-process (no sockets) with
// closed-loop clients replaying seeded request pools, checks every
// response against the library's own decision procedures, and prints one
// JSON result line:
//
//	perfbench --workload hit-single --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see trace.go). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// A run boots the engine this many times; setup_s is the median, and
// the last boot serves the run. The count is fixed, so the state a warm-up
// leaves behind (internal/re's caches grow on every trees compute) is the
// same on every commit.
const boots = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "hit-single", fmt.Sprintf("workload, one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "seed of the request pools")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	out := flag.String("out", ".bench_build/perfbench", "directory for the sealed artifact, reports and spans")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := bench(*name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func bench(name string, seed int64, seconds int, traced bool, out string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%v", name, seed, traced))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	// The artifact is built before set-up: building it is offline work
	// (lcltool seal), not part of a server's boot.
	sealedPath := filepath.Join(runDir, "sealed.lcls")
	sealed, err := service.BuildSealed(service.SealConfig{CycleKs: []int{1, 2, 3}})
	if err != nil {
		return nil, err
	}
	sealed.CreatedUnix = 1
	if _, err := store.SaveSealed(sealedPath, sealed); err != nil {
		return nil, err
	}
	defer os.Remove(sealedPath)

	var s *server
	var setups []float64
	for range boots {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = boot(w, sealedPath); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	if err := validate(w, s.handler); err != nil {
		return nil, fmt.Errorf("validation pass: %w", err)
	}

	res := &result{Metrics: map[string]metric{}}
	detail := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "boots_s": setups}
	if traced {
		m, attempted, failed, err := traceMetrics(w, s, seconds, runDir)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = attempted, failed
		for k, v := range m {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		logf("%s seed %d traced: %d requests, overhead %.2fx; tables in %s",
			name, seed, attempted, m["trace.overhead"], runDir)
	} else {
		setup := median(slices.Clone(setups))
		if err := endToEnd(w, s, seconds, setup, res, detail); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	detail["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	return res, writeJSON(filepath.Join(runDir, "report.json"), map[string]any{"result": res, "detail": detail})
}

// endToEnd is the untraced measurement with the workload's own clients.
// detail collects what the report records beside the metrics.
func endToEnd(w *workload, s *server, seconds int, setup float64, res *result, detail map[string]any) error {
	loadgen := loadgenAllocs()
	s0 := s.engine.Stats()
	p := run(w, s.handler, w.clients, time.Duration(seconds)*time.Second, w.heapAt)
	delta := diffStats(s0, s.engine.Stats(), p.items)
	if err := w.check(delta); err != nil {
		return fmt.Errorf("%s: defining property does not hold: %w", w.name, err)
	}
	res.Attempted, res.Failed = p.requests, p.failed
	// Throughput and percentiles are medians over the phase's windows, so
	// a burst of load from outside the process moves them less. A
	// percentile needs ten samples beyond it to mean anything: where a
	// window has fewer, p99 is taken over the whole phase, and left out
	// if that has fewer too.
	p50, above50 := p.quantile(0.50)
	p99, above99 := p.quantile(0.99)
	p99Over := "windows"
	if above99 < 10 {
		slices.Sort(p.lat)
		p99, above99 = percentile(p.lat, 0.99)
		p99Over = "phase"
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["items_per_s"] = metric{median(slices.Clone(p.winRate)), "1/s"}
	res.Metrics["p50_ms"] = metric{p50, "ms"}
	if above99 >= 10 {
		res.Metrics["p99_ms"] = metric{p99, "ms"}
	}
	res.Metrics["allocs_per_item"] = metric{float64(p.mallocs) / float64(p.items), "count"}
	res.Metrics["bytes_per_item"] = metric{float64(p.allocBytes) / float64(p.items), "bytes"}
	logf("%s: %d requests (%d items) in %.2fs, fail_ratio %g, window items/s %.1f, p50 %.4fms (fewest above in a window: %d), p99 %.4fms over the %s (fewest above: %d), client-loop allocs/item %.3f",
		w.name, p.requests, p.items, p.elapsed.Seconds(), float64(p.failed)/float64(p.requests),
		p.winRate, p50, above50, p99, p99Over, above99, loadgen)
	detail["requests"], detail["items"], detail["elapsed_s"] = p.requests, p.items, p.elapsed.Seconds()
	detail["window_items_per_s"] = p.winRate
	detail["latency_samples"], detail["p50_above"], detail["p99_above"], detail["p99_over"] = len(p.lat), above50, above99, p99Over
	detail["loadgen_allocs_per_item"] = loadgen
	detail["stats_delta"] = map[string]uint64{
		"requests": delta.requests, "memo_puts": delta.puts, "memo_hits": delta.hits,
		"memo_misses": delta.misses, "memo_evictions": delta.evicted, "coalesced": delta.coalesced,
		"sealed_hits": delta.sealedHits, "sealed_misses": delta.sealedMisses,
	}
	// A workload whose heap grows with every request has read its live
	// heap after a fixed number of requests. The others read it now, with the
	// client loop's samples, pools and references dropped: what remains
	// is the engine and its caches.
	heap, readAt := p.heapLive, w.heapAt
	if heap == 0 {
		if w.heapAt > 0 {
			logf("%s: only %d requests, fewer than %d; live heap read at the end", w.name, p.requests, w.heapAt)
		}
		p.lat, p.winLat = nil, nil
		w.items, w.reqs = nil, nil
		heap, readAt = liveHeap(), p.requests
		runtime.KeepAlive(s)
	}
	detail["heap_read_after_requests"] = readAt
	res.Metrics["heap_live_mb"] = metric{float64(heap) / 1e6, "MB"}
	return nil
}

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "ms" // trees.compute_ms.<problem>
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
