// Command lclserver serves the classification engine over HTTP/JSON: the
// reproduction's decision procedures — cycles, trees, paths-with-inputs,
// synthesis, rooted trees, and oriented grids, dispatched through the
// decider registry (internal/decide) — behind a memoized, batch-capable
// API whose verdicts share one complexity-class lattice, plus a
// background job orchestrator for the long-running census workloads.
// The Figure-1 landscape panels are drawn offline by cmd/landscape.
//
//	lclserver -addr :8080 -workers 8 -cache-capacity 65536 \
//	  -snapshot /var/lib/lcl/snapshot.lclsnap \
//	  -jobs-ledger /var/lib/lcl/jobs.json -snapshot-interval 5m
//
// With -snapshot the server warm-starts from the snapshot file when it
// exists (memo cache entries, censuses — with lifetime cache counters
// preserved), saves the warm state back on clean shutdown, checkpoints
// it periodically while jobs run, optionally autosaves it every
// -snapshot-interval, and exposes on-demand saves via POST
// /v1/admin/snapshot. A missing snapshot file means a cold start; a
// corrupt or version-mismatched one is logged and ignored.
//
// With -jobs-ledger the job table survives restarts: jobs that were
// pending or running when the process died are re-enqueued at boot and
// — because the snapshot checkpoints carry their partial results —
// resume warm instead of recomputing from scratch.
//
// With -sealed the server memory-maps a precomputed landscape table
// built by `lcltool seal` (reading it into the heap where mapping is
// unavailable) and consults it before the memo cache: requests inside
// the sealed spaces are answered with one hash probe, zero allocations,
// and no lock contention. A missing, corrupt, or version-mismatched
// table is logged and ignored — the server serves classifier-only, with
// bit-identical verdicts.
//
// Endpoints:
//
//	POST /v1/classify        {"mode":"cycles","problem":{...lcl codec...}}
//	                         {"mode":"rooted","rooted":{...rooted spec...}}
//	                         {"mode":"grid","dims":2,"problem":{...}}
//	POST /v1/classify/batch  {"requests":[...]}
//	GET  /v1/census/{k}      classified cycle-LCL census (k in 1..3)
//	GET  /v1/census/paths/{k}  path-LCL solvability census (k in 1..3)
//	POST /v1/jobs            submit a background job
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job state + progress + result
//	DELETE /v1/jobs/{id}     cancel a job
//	GET  /v1/jobs/{id}/events  SSE progress stream
//	POST /v1/admin/snapshot  persist the warm state now
//	GET  /healthz            liveness
//	GET  /statsz             engine + cache counters + snapshot age
//	GET  /metricsz           Prometheus text exposition (engine, memo,
//	                         jobs, HTTP families)
//	GET  /debug/tracez       recent request traces with per-stage spans
//	                         (?decider=, ?min_ms=, ?limit=)
//
// Observability: logs are structured (log/slog; -log-format json for
// machine-readable lines, -log-level debug for per-request access
// lines), every response echoes an X-Request-Id (accepted from the
// request or minted), requests slower than -slow-request are logged
// with their span breakdown, and the last -trace-buffer requests are
// inspectable at /debug/tracez.
//
// Shutdown (SIGINT/SIGTERM) is graceful and ordered: the listener
// drains in-flight requests via http.Server.Shutdown, the job manager
// interrupts running jobs (recording them for resumption) and saves the
// ledger, and only then is the final snapshot written — so the snapshot
// always includes the interrupted jobs' last partial results.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	// Registers the profiling endpoints on http.DefaultServeMux; they
	// are only reachable when -pprof binds that mux to its own listener.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", service.DefaultWorkers, "batch worker pool size")
	cacheShards := flag.Int("cache-shards", 0, "memo cache shard count (0 = default)")
	cacheCap := flag.Int("cache-capacity", 0, "memo cache total entries (0 = default)")
	maxBatch := flag.Int("max-batch", 0, "max items per /v1/classify/batch request; larger batches get 413 (0 = default)")
	prewarm := flag.Int("prewarm", 0, "run the k-census on startup to warm the cache (0 = off)")
	snapshotPath := flag.String("snapshot", "", "snapshot file: load on startup if present, save on shutdown, at checkpoints, and via POST /v1/admin/snapshot (empty = off)")
	sealedPath := flag.String("sealed", "", "sealed landscape table from `lcltool seal`: precomputed verdicts served before the memo cache (empty = off)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "autosave the snapshot at this interval, e.g. 5m (0 = off; requires -snapshot)")
	jobsLedger := flag.String("jobs-ledger", "", "job ledger file: persists the job table and re-enqueues unfinished jobs at boot (empty = off)")
	jobWorkers := flag.Int("job-workers", 1, "concurrently running background jobs")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "in-flight request drain budget on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060 (empty = off; bind a loopback address — the endpoints are unauthenticated)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error (debug logs every request)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	slowRequest := flag.Duration("slow-request", obs.DefaultSlowThreshold, "log requests slower than this with their span breakdown (0 = off)")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceBuffer, "recent request traces kept for /debug/tracez")
	flag.Parse()

	base := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel), *logFormat == "json")
	slog.SetDefault(base)
	logger := obs.Component(base, "lclserver")

	obsSet := obs.NewSet()
	obsSet.Logger = base
	obsSet.Traces = obs.NewTraceRing(*traceBuffer)
	obsSet.SlowThreshold = *slowRequest

	// The lcl_build_info gauge is registered again by the engine's obs
	// wiring (idempotently); registering here first lets the startup log
	// carry the same version labels every scrape will.
	version, goVersion := obs.RegisterBuildInfo(obsSet.Registry)
	logger.Info("build info", "version", version, "go", goVersion)

	// Profiling listener: separate from the API listener so profiling
	// never rides an exposed port, and guarded by the flag so production
	// deployments opt in explicitly.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr, "path", "/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	if *snapshotInterval > 0 && *snapshotPath == "" {
		logger.Error("-snapshot-interval requires -snapshot")
		os.Exit(1)
	}

	var snapshot *store.Snapshot
	if *snapshotPath != "" {
		switch s, err := store.Load(*snapshotPath); {
		case err == nil:
			snapshot = s
			logger.Info("loaded snapshot", "path", *snapshotPath,
				"memo_entries", len(s.Memo), "censuses", len(s.Censuses),
				"path_censuses", len(s.PathCensuses))
		case os.IsNotExist(err):
			logger.Info("snapshot not found, starting cold", "path", *snapshotPath)
		default:
			// Corrupt or version-mismatched snapshots are a cold start,
			// not a refusal to serve.
			logger.Warn("ignoring snapshot", "path", *snapshotPath, "err", err)
		}
	}

	var sealedTbl *store.SealedTable
	if *sealedPath != "" {
		switch t, err := store.OpenSealedMapped(*sealedPath); {
		case err == nil:
			mode := "read"
			if t.Mapped() {
				mode = "mmap"
			}
			logger.Info("loaded sealed landscape", "path", *sealedPath,
				"entries", t.Len(), "sections", len(t.Sections()),
				"bytes", t.SizeBytes(), "mode", mode)
			sealedTbl = t
		case os.IsNotExist(err):
			logger.Info("sealed table not found, serving classifier-only", "path", *sealedPath)
		default:
			// Corrupt or version-mismatched tables must never be served;
			// the classifier fallback is bit-identical. The error names the
			// failing section and byte offset for corrupt artifacts.
			logger.Warn("ignoring sealed table", "path", *sealedPath, "err", err)
		}
	}

	var ledger *jobs.Ledger
	if *jobsLedger != "" {
		switch l, err := jobs.LoadLedger(*jobsLedger); {
		case err == nil:
			ledger = l
			resumable := 0
			for _, j := range l.Jobs {
				if !j.State.Terminal() || j.State == jobs.StateInterrupted {
					resumable++
				}
			}
			logger.Info("loaded job ledger", "path", *jobsLedger,
				"jobs", len(l.Jobs), "to_re_enqueue", resumable)
		case os.IsNotExist(err):
			logger.Info("job ledger not found, starting empty", "path", *jobsLedger)
		default:
			logger.Warn("ignoring job ledger", "path", *jobsLedger, "err", err)
		}
	}

	engine := service.New(service.Config{
		Workers:        *workers,
		CacheShards:    *cacheShards,
		CacheCapacity:  *cacheCap,
		MaxBatch:       *maxBatch,
		Snapshot:       snapshot,
		SnapshotPath:   *snapshotPath,
		Sealed:         sealedTbl,
		JobWorkers:     *jobWorkers,
		JobsLedgerPath: *jobsLedger,
		JobsLedger:     ledger,
		Obs:            obsSet,
	})

	if *prewarm > 0 {
		start := time.Now()
		if _, err := engine.Census(*prewarm, true); err != nil {
			logger.Error("prewarm census failed", "k", *prewarm, "err", err)
			os.Exit(1)
		}
		logger.Info("prewarmed census", "k", *prewarm, "elapsed", time.Since(start))
	}

	// Periodic snapshot autosave: long-lived servers should not lose the
	// memo cache to a crash just because no job happened to checkpoint.
	autosaveStop := make(chan struct{})
	if *snapshotInterval > 0 {
		go func() {
			ticker := time.NewTicker(*snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-autosaveStop:
					return
				case <-ticker.C:
					if res, err := engine.SaveSnapshot(); err != nil {
						logger.Warn("snapshot autosave failed", "err", err)
					} else {
						logger.Info("snapshot autosave", "path", res.Path, "bytes", res.Bytes)
					}
				}
			}
		}()
	}

	srv := &http.Server{
		Addr: *addr,
		// NewHandler already wraps the route table in obs.Middleware
		// (request metrics, traces, access + slow-request logging).
		Handler: service.NewHandler(engine),
		// Headers get 5 s; bodies get 30 s, set per request by the
		// service routes that read one. There is no ReadTimeout, which
		// would also end long-lived job event streams.
		ReadHeaderTimeout: 5 * time.Second,
	}
	// SSE job-event streams are long-lived by design; end them when the
	// drain starts or Shutdown would stall for its whole timeout behind
	// every open watcher.
	srv.RegisterOnShutdown(engine.ShutdownStreams)
	serveErr := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"job_workers", *jobWorkers,
			"deciders", strings.Join(engine.Deciders(), ", "))
		serveErr <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveFailed := false
	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
	case err := <-serveErr:
		// Listener died on its own (port conflict, ...): still run the
		// ordered shutdown so jobs and snapshots are not lost, but exit
		// non-zero so supervisors notice the server never served.
		logger.Error("serve failed", "err", err)
		serveFailed = err != nil && err != http.ErrServerClosed
	}

	// Ordered shutdown: drain HTTP first so no request observes a
	// half-stopped engine...
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http drain incomplete", "err", err)
	}
	close(autosaveStop)
	// ...then stop the engine: running jobs are interrupted and the
	// ledger records them for resumption...
	engine.Close()
	interrupted := 0
	for _, j := range engine.ListJobs() {
		if j.State == jobs.StateInterrupted {
			interrupted++
		}
	}
	if interrupted > 0 {
		logger.Info("interrupted running jobs for resumption", "jobs", interrupted)
	}
	// ...and finally persist the warm state, interrupted partials
	// included.
	if *snapshotPath != "" {
		start := time.Now()
		if res, err := engine.SaveSnapshot(); err != nil {
			logger.Error("final snapshot save failed", "err", err)
		} else {
			logger.Info("saved final snapshot", "path", res.Path,
				"bytes", res.Bytes, "memo_entries", res.MemoEntries,
				"censuses", res.Censuses+res.PathCensuses,
				"elapsed", time.Since(start))
		}
	}
	if serveFailed {
		os.Exit(1)
	}
}
