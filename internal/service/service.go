// Package service is the batch classification engine behind the
// lclserver API: it dispatches requests through the decider registry
// (internal/decide), fans them out across a configurable worker pool,
// deduplicates identical in-flight requests (singleflight), and memoizes
// results in a sharded cache (internal/memo) keyed by each decider's
// fingerprint and memo domain.
//
// The engine never inspects a request's mode itself: the registered
// Decider supplies validation, the memo key domain (which also tags
// snapshot records, through the key), the computation, and the
// projection of its payload onto the shared complexity-class lattice.
// Caching is sound because each decider's Fingerprint only identifies
// requests its Compute answers identically — canonical forms under
// label isomorphism for the lcl-based deciders (whose classifiers
// depend only on the constraint structure of Π, never the alphabet
// spelling), exact structural hashes where isomorphism would be too
// coarse (rooted, grid).
package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/rooted"
	"repro/internal/store"
)

// Request is one classification request; Mode selects the registered
// decider (see deciders.go for the names and parameters).
type Request = decide.Request

// SynthOutcome is the synthesize decider's payload.
type SynthOutcome struct {
	// Algorithm is the synthesized order-invariant algorithm (nil when
	// Found is false).
	Algorithm *enumerate.Synthesized
	// Radius is the smallest radius at which synthesis succeeded.
	Radius int
	// Found reports whether any radius <= MaxRadius admits an algorithm;
	// false is a proof of non-existence for the searched radii.
	Found bool
}

// Response is a classification result plus serving metadata.
type Response struct {
	// Mode is the decider that served the request.
	Mode        string
	Fingerprint uint64
	// CacheHit reports the result came from the memo cache.
	CacheHit bool
	// Coalesced reports the request waited on an identical in-flight
	// computation instead of running its own.
	Coalesced bool
	// Sealed reports the result came from the read-only sealed landscape
	// table (which implies CacheHit: the verdict was precomputed).
	Sealed bool
	// Class is the decider's verdict on the shared complexity-class
	// lattice.
	Class decide.Class
	// Detail is the decider-specific wire view (Decider.WrapPayload).
	Detail any
	// Payload is the raw decider payload — the memoized value. The
	// typed accessors below unwrap it.
	Payload any
}

// Cycles returns the cycle classification payload, or nil for other
// modes.
func (r *Response) Cycles() *classify.Result {
	v, _ := r.Payload.(*classify.Result)
	return v
}

// Trees returns the tree gap-pipeline payload, or nil for other modes.
func (r *Response) Trees() *core.TreeVerdict {
	v, _ := r.Payload.(*core.TreeVerdict)
	return v
}

// Paths returns the paths-with-inputs payload, or nil for other modes.
func (r *Response) Paths() *classify.InputsResult {
	v, _ := r.Payload.(*classify.InputsResult)
	return v
}

// Synth returns the synthesis payload, or nil for other modes.
func (r *Response) Synth() *SynthOutcome {
	v, _ := r.Payload.(*SynthOutcome)
	return v
}

// Rooted returns the rooted-tree payload, or nil for other modes.
func (r *Response) Rooted() *rooted.Verdict {
	v, _ := r.Payload.(*rooted.Verdict)
	return v
}

// Grid returns the oriented-grid payload, or nil for other modes.
func (r *Response) Grid() *grid.Verdict {
	v, _ := r.Payload.(*grid.Verdict)
	return v
}

// Config configures an Engine.
type Config struct {
	// Registry supplies the decision procedures (nil selects
	// DefaultRegistry: cycles, trees, paths-inputs, synthesize, rooted,
	// grid). Register every decider before New: per-decider stats
	// buckets and the census job table are built at construction, so a
	// decider registered later still serves requests but gets no stats
	// bucket and contributes no job type.
	Registry *decide.Registry
	// Workers is the size of the batch worker pool (<= 0 selects 4).
	Workers int
	// CacheShards and CacheCapacity size the memo cache (memo defaults
	// when zero).
	CacheShards   int
	CacheCapacity int
	// Snapshot, when non-nil, warm-starts the engine: memo entries are
	// imported into the cache (with lifetime counters preserved), census
	// results are restored and served without recomputation, and census
	// runs not covered verbatim warm-start from the restored
	// fingerprints. Records damaged beyond use are skipped, never fatal.
	Snapshot *store.Snapshot
	// SnapshotPath, when non-empty, is where SaveSnapshot (and the
	// POST /v1/admin/snapshot endpoint) writes.
	SnapshotPath string
	// Sealed, when non-nil, is the precomputed landscape table (built by
	// lcltool seal; lclserver opens it with store.OpenSealedMapped,
	// tests and tools may use store.LoadSealed). It is consulted before
	// the memo cache: a hit is one hash and one lock-free probe — no LRU
	// bump, no shard contention, no allocation. A miss falls through to
	// the existing cache/compute path unchanged, so serving without a
	// table (or after refusing a corrupt one) is bit-identical, just
	// slower.
	Sealed *store.SealedTable
	// MaxBatch bounds /v1/classify/batch item counts (<= 0 selects
	// DefaultMaxBatch); the HTTP layer rejects larger batches, and
	// batch bodies over MaxBatch × 16 KiB, with 413. It also bounds the
	// pooled batch scratch arenas.
	MaxBatch int
	// JobWorkers bounds concurrently running background jobs (<= 0
	// selects 1; each job is internally parallel across the engine's
	// worker count already).
	JobWorkers int
	// JobsLedgerPath, when non-empty, persists the job ledger there on
	// every job state transition.
	JobsLedgerPath string
	// JobsLedger, when non-nil, seeds the job manager from a previously
	// saved ledger: unfinished jobs are re-enqueued at construction (see
	// internal/jobs). Pair it with Snapshot so re-enqueued censuses
	// resume warm.
	JobsLedger *jobs.Ledger
	// Obs supplies the observability surface (metrics registry, trace
	// ring, structured logger). Nil builds a private obs.NewSet, so an
	// engine is always instrumented unless DisableObs opts out.
	Obs *obs.Set
	// DisableObs builds the engine without instrumentation: no metric
	// registrations, no per-request observations, Obs() returns nil.
	// Exists for measuring instrumentation overhead (bench gate) and for
	// embedders that want the bare engine.
	DisableObs bool
}

// DefaultWorkers is the worker pool size when Config leaves it zero.
const DefaultWorkers = 4

// Engine is the classification service. It is safe for concurrent use.
type Engine struct {
	registry *decide.Registry
	cache    *memo.Cache
	workers  int

	jobs chan func()
	wg   sync.WaitGroup

	mu       sync.Mutex
	inflight map[uint64]*call
	closed   bool

	// censusMu guards the census result caches, their in-flight calls,
	// the snapshot-restored warm censuses, and the snapshot bookkeeping.
	censusMu     sync.Mutex
	censuses     map[censusKey]*enumerate.Census
	censusCalls  map[censusKey]*call
	pathCensuses map[int]*enumerate.PathCensus
	pathCalls    map[int]*call
	// warmByK holds one restored census per alphabet size for
	// enumerate.RunOpts.Warm (preferring the deduplicated record: its
	// representatives carry every fingerprint in the space).
	warmByK map[int]*enumerate.Census

	// jobMgr orchestrates background jobs (see jobs.go); constructed
	// after the snapshot restore so re-enqueued jobs start warm.
	jobMgr *jobs.Manager
	// streamsDone is closed by ShutdownStreams to end long-lived event
	// streams (SSE handlers) that would otherwise hold up an HTTP drain.
	streamsDone     chan struct{}
	streamsShutdown sync.Once

	// sealed is the read-only precomputed landscape table (nil = tier
	// off); its hit/miss counters live beside the engine's other serving
	// counters.
	sealed       *store.SealedTable
	sealedHits   atomic.Uint64
	sealedMisses atomic.Uint64
	// sealedVerdicts memoizes WrapPayload results per sealed entry index
	// (sized to the table at construction): the table is a fixed
	// immutable set and wrapping is pure, so batch serving of sealed
	// hits allocates nothing at steady state (see batch.go).
	sealedVerdicts []atomic.Pointer[decide.Verdict]

	// maxBatch is the batch item limit the HTTP layer enforces
	// (Config.MaxBatch, defaulted).
	maxBatch int
	// bodyTimeout is bodyReadTimeout; tests shorten it.
	bodyTimeout time.Duration

	snapshotPath string
	snapLoaded   bool
	snapMemo     int // memo entries restored
	snapCensuses int
	snapPaths    int
	snapSkipped  int // snapshot records skipped as unusable
	snapTime     time.Time

	requests  atomic.Uint64
	errors    atomic.Uint64
	coalesced atomic.Uint64
	// byDecider counts requests per registered decider (keys fixed at
	// construction from the registry); unknownMode counts requests
	// rejected for naming no registered decider — they pollute no
	// decider's bucket.
	byDecider   map[string]*atomic.Uint64
	unknownMode atomic.Uint64
	// modes is the registry's names at construction, against which the
	// request decoders intern mode strings.
	modes []string

	// obs is the engine's observability state (see obs.go); nil when the
	// engine was built with Config.DisableObs.
	obs *engineObs
}

// censusKey identifies one census result.
type censusKey struct {
	k     int
	dedup bool
}

// call is one in-flight computation that later identical requests attach
// to. payload is the mode-specific result value — the same value the
// memo cache stores, so census runs (which cache *classify.Result under
// the cycles domain) and API traffic interoperate.
type call struct {
	done    chan struct{}
	payload any
	err     error
}

// New starts an engine with cfg's worker pool and cache.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	cache := memo.New(cfg.CacheShards, cfg.CacheCapacity)
	registry := cfg.Registry
	if registry == nil {
		registry = DefaultRegistry()
	}
	modes := registry.Names()
	byDecider := map[string]*atomic.Uint64{}
	for _, name := range modes {
		byDecider[name] = &atomic.Uint64{}
	}
	e := &Engine{
		registry:     registry,
		byDecider:    byDecider,
		modes:        modes,
		cache:        cache,
		workers:      workers,
		jobs:         make(chan func()),
		streamsDone:  make(chan struct{}),
		inflight:     map[uint64]*call{},
		censuses:     map[censusKey]*enumerate.Census{},
		censusCalls:  map[censusKey]*call{},
		pathCensuses: map[int]*enumerate.PathCensus{},
		pathCalls:    map[int]*call{},
		warmByK:      map[int]*enumerate.Census{},
		sealed:       cfg.Sealed,
		snapshotPath: cfg.SnapshotPath,
		maxBatch:     cfg.MaxBatch,
		bodyTimeout:  bodyReadTimeout,
	}
	if e.maxBatch <= 0 {
		e.maxBatch = DefaultMaxBatch
	}
	if cfg.Sealed != nil {
		e.sealedVerdicts = make([]atomic.Pointer[decide.Verdict], cfg.Sealed.Len())
	}
	if !cfg.DisableObs {
		set := cfg.Obs
		if set == nil {
			// A private set: metrics and traces work out of the box, but
			// logging stays off — an embedder that wants log output wires
			// its own Set (as cmd/lclserver does).
			set = obs.NewSet()
			set.Logger = obs.NopLogger()
		}
		e.obs = newEngineObs(set, registry.Names())
	}
	if cfg.Snapshot != nil {
		e.restoreSnapshot(cfg.Snapshot)
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for job := range e.jobs {
				job()
			}
		}()
	}
	jcfg := jobs.Config{
		Workers:    cfg.JobWorkers,
		Runners:    e.runners(),
		LedgerPath: cfg.JobsLedgerPath,
		Ledger:     cfg.JobsLedger,
	}
	if e.snapshotPath != "" {
		jcfg.Checkpoint = func() error {
			_, err := e.SaveSnapshot()
			return err
		}
	}
	if e.obs != nil {
		jcfg.Logger = obs.Component(e.obs.set.Logger, "jobs")
		jcfg.OnCheckpoint = func(d time.Duration, err error) {
			e.obs.checkpoint.Observe(d.Seconds())
		}
	}
	e.jobMgr = jobs.New(jcfg)
	if e.obs != nil {
		e.finishObs()
	}
	return e
}

// restoreSnapshot warm-starts the engine from a loaded snapshot. Records
// that fail to re-materialize are skipped and counted — a snapshot is an
// optimization, never a reason not to start.
func (e *Engine) restoreSnapshot(s *store.Snapshot) {
	entries, err := store.DecodeMemo(s.Memo)
	if err != nil {
		// Undecodable memo records void the whole memo section (keys and
		// counters describe traffic we can no longer represent) but leave
		// the censuses usable.
		e.snapSkipped += len(s.Memo)
	} else {
		e.cache.Import(entries, memo.Stats{
			Hits:      s.MemoStats.Hits,
			Misses:    s.MemoStats.Misses,
			Evictions: s.MemoStats.Evictions,
			Puts:      s.MemoStats.Puts,
		})
		e.snapMemo = len(entries)
	}
	for i := range s.Censuses {
		rec := &s.Censuses[i]
		c, err := rec.Census()
		if err != nil {
			e.snapSkipped++
			continue
		}
		e.censuses[censusKey{c.K, c.Dedup}] = c
		if prev, ok := e.warmByK[c.K]; !ok || (!prev.Dedup && c.Dedup) {
			e.warmByK[c.K] = c
		}
		e.snapCensuses++
	}
	for i := range s.PathCensuses {
		rec := &s.PathCensuses[i]
		c, err := rec.PathCensus()
		if err != nil {
			e.snapSkipped++
			continue
		}
		e.pathCensuses[c.K] = c
		e.snapPaths++
	}
	e.snapLoaded = true
	e.snapTime = time.Unix(s.CreatedUnix, 0)
}

// ShutdownStreams ends every open job event stream (SSE). An HTTP
// server that drains in-flight requests before Engine.Close must call
// this first (http.Server.RegisterOnShutdown is the natural hook) —
// a watcher of a running job would otherwise hold the drain open for
// its full timeout, because jobs are only interrupted later, in Close.
func (e *Engine) ShutdownStreams() {
	e.streamsShutdown.Do(func() { close(e.streamsDone) })
}

// Close stops the job manager (running jobs are interrupted and
// checkpointed, the ledger is saved so the next process resumes them)
// and then the worker pool; in-flight batch items finish first. Classify
// remains usable after Close (it runs on the caller's goroutine);
// ClassifyBatch and the job API do not.
func (e *Engine) Close() {
	e.ShutdownStreams()
	e.jobMgr.Close()
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Deciders returns the registered decider names in registration order.
func (e *Engine) Deciders() []string { return e.registry.Names() }

// Classify serves one request: resolve the decider, normalize,
// fingerprint, consult the sealed table and the cache, coalesce with an
// identical in-flight request if one exists, otherwise compute and
// populate the cache.
func (e *Engine) Classify(req Request) (*Response, error) {
	return e.ClassifyCtx(context.Background(), req)
}

// ClassifyCtx is Classify with a request context. The request runs
// through the batch pipeline as a batch of one on a pooled arena, so
// single and batch serving share one tier walk. A trace carried in ctx
// (obs.ContextWithTrace — the HTTP middleware installs one) gets a span
// per stage that did work (fingerprint, sealed-get, memo-get, coalesce,
// compute, memo-put, wrap) and the serving decider's name; the context
// also reaches the Compute of an inexact fingerprint. A cold request
// computes on the caller's goroutine, so Classify remains usable after
// Close. The trace machinery is nil-safe, so untraced and uninstrumented
// calls pay only nil checks.
func (e *Engine) ClassifyCtx(ctx context.Context, req Request) (*Response, error) {
	sc := singleScratchPool.Get().(*batchScratch)
	defer singleScratchPool.Put(sc)
	reqs := [1]Request{req}
	item := e.classify(ctx, sc, reqs[:])[0]
	if d := sc.ds[0]; d != nil {
		obs.TraceFrom(ctx).SetDecider(d.Name())
	}
	if item.Err != nil {
		return nil, item.Err
	}
	resp := *item.Response
	return &resp, nil
}

// BatchItem pairs one batch response with its error; exactly one of the
// two is set.
type BatchItem struct {
	Response *Response
	Err      error
}

// Census returns the classified cycle census, computing it at most once
// per (k, dedup): results are cached for the engine's lifetime (they are
// immutable), restored censuses from a snapshot are served directly, and
// concurrent requests for the same census coalesce onto one computation.
// A computed census runs over the engine's memo cache and worker count —
// census runs and cycles-mode traffic share memo keys, so each warms the
// other — and warm-starts from snapshot-restored fingerprints when the
// exact (k, dedup) census was not itself persisted.
func (e *Engine) Census(k int, dedup bool) (*enumerate.Census, error) {
	return e.censusWith(nil, k, dedup, nil)
}

// censusWith is Census with a cancellation context and progress callback
// for the jobs layer. Synchronous requests and jobs share the same
// singleflight, so a census is never computed twice concurrently; a
// caller that coalesces onto another caller's computation inherits that
// computation's (possibly absent) cancellation and reports no progress.
func (e *Engine) censusWith(ctx context.Context, k int, dedup bool, progress func(done, total int)) (*enumerate.Census, error) {
	// warmByK is written only during construction (restoreSnapshot), so
	// the read needs no lock.
	return cachedCall(e, ctx, e.censuses, e.censusCalls, censusKey{k, dedup}, func() (*enumerate.Census, error) {
		return enumerate.RunWith(k, dedup, enumerate.RunOpts{
			Workers:  e.workers,
			Cache:    e.cache,
			Warm:     e.warmByK[k],
			Ctx:      ctx,
			Progress: e.censusProgress(progress),
		})
	})
}

// PathCensus returns the path-LCL solvability census for alphabet size
// k, computed at most once per k with the same caching and coalescing
// discipline as Census. Per-problem decisions go through the memo cache
// (enumerate.PathDomain), so census runs, API traffic, and snapshot
// checkpoints all warm each other.
func (e *Engine) PathCensus(k int) (*enumerate.PathCensus, error) {
	return e.pathCensusWith(nil, k, nil)
}

// pathCensusWith is PathCensus with the jobs layer's context and
// progress hooks (see censusWith for the coalescing caveats).
func (e *Engine) pathCensusWith(ctx context.Context, k int, progress func(done, total int)) (*enumerate.PathCensus, error) {
	return cachedCall(e, ctx, e.pathCensuses, e.pathCalls, k, func() (*enumerate.PathCensus, error) {
		return enumerate.RunPathsWith(k, enumerate.PathRunOpts{
			Ctx:      ctx,
			Cache:    e.cache,
			Progress: e.censusProgress(progress),
		})
	})
}

// cachedCall is the compute-at-most-once discipline shared by Census and
// PathCensus: serve from cache, else coalesce onto an in-flight call,
// else compute and publish. Results are immutable, so a cached value is
// returned to every caller; errors are not cached (a later call
// retries). Both maps are guarded by e.censusMu.
//
// A coalescing caller waits only as long as its ctx allows: a cancelled
// job (or a shutting-down manager) must not block behind another
// caller's computation, which keeps running and publishes its result
// normally. A nil ctx waits unconditionally.
func cachedCall[K comparable, V any](e *Engine, ctx context.Context, cache map[K]V, calls map[K]*call, key K, compute func() (V, error)) (V, error) {
	e.censusMu.Lock()
	if v, ok := cache[key]; ok {
		e.censusMu.Unlock()
		return v, nil
	}
	if c, ok := calls[key]; ok {
		e.censusMu.Unlock()
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-c.done:
		case <-cancelled:
			var zero V
			return zero, ctx.Err()
		}
		if c.err != nil {
			var zero V
			return zero, c.err
		}
		return c.payload.(V), nil
	}
	c := &call{done: make(chan struct{})}
	calls[key] = c
	e.censusMu.Unlock()

	v, err := compute()
	c.payload, c.err = v, err
	e.censusMu.Lock()
	if err == nil {
		cache[key] = v
	}
	delete(calls, key)
	e.censusMu.Unlock()
	close(c.done)
	return v, err
}

// BuildSnapshot captures the engine's warm state — every census computed
// or restored so far plus the persistable memo entries — as a snapshot
// ready for store.Save.
func (e *Engine) BuildSnapshot() (*store.Snapshot, int) {
	s := &store.Snapshot{CreatedUnix: time.Now().Unix()}
	e.censusMu.Lock()
	for _, c := range e.censuses {
		s.Censuses = append(s.Censuses, store.FromCensus(c))
	}
	for _, c := range e.pathCensuses {
		s.PathCensuses = append(s.PathCensuses, store.FromPathCensus(c))
	}
	e.censusMu.Unlock()
	entries, stats := e.cache.Export()
	records, skipped := store.EncodeMemo(entries)
	s.Memo = records
	s.MemoStats = store.MemoStats{
		Hits:      stats.Hits,
		Misses:    stats.Misses,
		Evictions: stats.Evictions,
		Puts:      stats.Puts,
	}
	return s, skipped
}

// SnapshotSaveResult reports one snapshot save.
type SnapshotSaveResult struct {
	Path string `json:"path"`
	// Bytes is the snapshot file size.
	Bytes int `json:"bytes"`
	// MemoEntries counts persisted cache entries; SkippedEntries counts
	// cache entries of kinds the snapshot format does not persist
	// (synthesized algorithms).
	MemoEntries    int `json:"memo_entries"`
	SkippedEntries int `json:"skipped_entries,omitempty"`
	Censuses       int `json:"censuses"`
	PathCensuses   int `json:"path_censuses"`
}

// SaveSnapshot builds a snapshot and writes it to the configured
// SnapshotPath. It fails when no path is configured.
func (e *Engine) SaveSnapshot() (*SnapshotSaveResult, error) {
	if e.snapshotPath == "" {
		return nil, fmt.Errorf("service: no snapshot path configured")
	}
	s, skipped := e.BuildSnapshot()
	n, err := store.Save(e.snapshotPath, s)
	if err != nil {
		return nil, err
	}
	e.censusMu.Lock()
	e.snapTime = time.Unix(s.CreatedUnix, 0)
	e.censusMu.Unlock()
	return &SnapshotSaveResult{
		Path:           e.snapshotPath,
		Bytes:          n,
		MemoEntries:    len(s.Memo),
		SkippedEntries: skipped,
		Censuses:       len(s.Censuses),
		PathCensuses:   len(s.PathCensuses),
	}, nil
}

// Stats is a point-in-time engine snapshot.
type Stats struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Coalesced uint64 `json:"coalesced"`
	// ByDecider counts served requests per registered decider name;
	// every registered decider appears, even at zero.
	ByDecider map[string]uint64 `json:"by_decider"`
	// UnknownModeRejects counts requests naming no registered decider.
	UnknownModeRejects uint64 `json:"unknown_mode_rejects"`
	// Deciders lists the registered decider names in registration order.
	Deciders []string `json:"deciders"`
	Workers  int      `json:"workers"`
	// BatchLimit is the enforced /v1/classify/batch item limit.
	BatchLimit int        `json:"batch_limit"`
	Cache      memo.Stats `json:"cache"`
	// CachedCensuses counts census results held for instant serving.
	CachedCensuses int `json:"cached_censuses"`
	// Jobs counts background jobs by state.
	Jobs map[jobs.State]int `json:"jobs,omitempty"`
	// Snapshot is nil when the engine runs without snapshot support.
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	// Sealed is nil when no sealed landscape table is loaded.
	Sealed *SealedInfo `json:"sealed,omitempty"`
	// Runtime is the process-level snapshot (goroutines, heap, GC);
	// the full distributions live in /metricsz.
	Runtime obs.RuntimeInfo `json:"runtime"`
}

// SnapshotInfo describes the engine's snapshot state for /statsz.
type SnapshotInfo struct {
	Path string `json:"path,omitempty"`
	// Loaded reports the engine warm-started from a snapshot.
	Loaded             bool `json:"loaded"`
	LoadedMemoEntries  int  `json:"loaded_memo_entries,omitempty"`
	LoadedCensuses     int  `json:"loaded_censuses,omitempty"`
	LoadedPathCensuses int  `json:"loaded_path_censuses,omitempty"`
	SkippedRecords     int  `json:"skipped_records,omitempty"`
	// AgeSeconds is the age of the newest snapshot state: time since the
	// last save, or since the loaded snapshot was created when the engine
	// has not saved yet. Negative-free; 0 when no snapshot exists yet.
	AgeSeconds float64 `json:"age_seconds"`
}

// SealedInfo describes the loaded sealed landscape table for /statsz.
type SealedInfo struct {
	// Entries is the total precomputed verdict count across sections.
	Entries int `json:"entries"`
	// Sections lists the sealed problem spaces.
	Sections []store.SealedSectionInfo `json:"sections"`
	// Bytes is the artifact size the table was loaded from.
	Bytes int `json:"bytes"`
	// Mapped reports zero-copy serving: the table reads a memory-mapped
	// artifact rather than a heap copy (store.OpenSealedMapped).
	Mapped bool `json:"mapped"`
	// AgeSeconds is the time since the artifact was built (negative-free).
	AgeSeconds float64 `json:"age_seconds"`
	// Hits and Misses count sealed-tier lookups over exact-fingerprint
	// traffic; a miss fell through to the memo cache.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats snapshots the serving counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Requests:           e.requests.Load(),
		Errors:             e.errors.Load(),
		Coalesced:          e.coalesced.Load(),
		ByDecider:          make(map[string]uint64, len(e.byDecider)),
		UnknownModeRejects: e.unknownMode.Load(),
		Deciders:           e.registry.Names(),
		Workers:            e.workers,
		BatchLimit:         e.maxBatch,
		Cache:              e.cache.Stats(),
	}
	for name, n := range e.byDecider {
		st.ByDecider[name] = n.Load()
	}
	if js := e.jobMgr.List(); len(js) > 0 {
		st.Jobs = map[jobs.State]int{}
		for _, j := range js {
			st.Jobs[j.State]++
		}
	}
	e.censusMu.Lock()
	st.CachedCensuses = len(e.censuses) + len(e.pathCensuses)
	if e.snapLoaded || e.snapshotPath != "" {
		info := &SnapshotInfo{
			Path:               e.snapshotPath,
			Loaded:             e.snapLoaded,
			LoadedMemoEntries:  e.snapMemo,
			LoadedCensuses:     e.snapCensuses,
			LoadedPathCensuses: e.snapPaths,
			SkippedRecords:     e.snapSkipped,
		}
		if !e.snapTime.IsZero() {
			if age := time.Since(e.snapTime).Seconds(); age > 0 {
				info.AgeSeconds = age
			}
		}
		st.Snapshot = info
	}
	e.censusMu.Unlock()
	if e.sealed != nil {
		info := &SealedInfo{
			Entries:  e.sealed.Len(),
			Sections: e.sealed.Sections(),
			Bytes:    e.sealed.SizeBytes(),
			Mapped:   e.sealed.Mapped(),
			Hits:     e.sealedHits.Load(),
			Misses:   e.sealedMisses.Load(),
		}
		if created := e.sealed.CreatedUnix(); created > 0 {
			if age := time.Since(time.Unix(created, 0)).Seconds(); age > 0 {
				info.AgeSeconds = age
			}
		}
		st.Sealed = info
	}
	st.Runtime = obs.ReadRuntimeInfo()
	return st
}
