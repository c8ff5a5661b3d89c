// Observability wiring for the engine: every instrument the service
// stack exports through /metricsz lives here, registered into one
// obs.Set at construction. Hot-path instruments (per-decider latency
// histograms and memo-outcome counters) are pre-resolved into a map so
// a served request pays one map lookup and a few atomic operations;
// everything whose source of truth is another subsystem (memo cache
// counters, job states, snapshot age) is a sampled collect callback
// evaluated only at scrape time.
package service

import (
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/obs"
)

// deciderObs is one decider's hot-path instruments.
type deciderObs struct {
	latency      *obs.Histogram
	hits         *obs.Counter
	misses       *obs.Counter
	errors       *obs.Counter
	sealedHits   *obs.Counter
	sealedMisses *obs.Counter
}

// engineObs bundles the engine's observability state.
type engineObs struct {
	set *obs.Set
	// decider is fixed at construction (like byDecider), so request
	// serving reads it without locks.
	decider map[string]*deciderObs
	// censusRate is the throughput of the most recent census progress
	// tick, in census entries (orbit representatives when dedup) per
	// second.
	censusRate *obs.Gauge
	// checkpoint observes snapshot-checkpoint durations (fed by the
	// jobs manager's OnCheckpoint hook).
	checkpoint *obs.Histogram
	// batch observes ClassifyBatch request sizes (batches only: single
	// requests never count as batches of one).
	batch *obs.Histogram
	// batchDedup observes, per batch, the fraction of exact-fingerprint
	// items resolved by intra-batch dedup (0 = all unique, →1 = all
	// duplicates of one key).
	batchDedup *obs.Histogram
	// batchSealedRate / batchMemoRate observe, per batch, the fraction
	// of the deduplicated key set each read tier served.
	batchSealedRate *obs.Histogram
	batchMemoRate   *obs.Histogram
	// batchItems counts batch items by resolution tier (fixed label
	// set; pre-resolved so fan-out pays only atomic increments).
	batchItemsSealed    *obs.Counter
	batchItemsMemo      *obs.Counter
	batchItemsComputed  *obs.Counter
	batchItemsCoalesced *obs.Counter
	batchItemsInexact   *obs.Counter
	batchItemsError     *obs.Counter
}

// observeBatch records the batch-only families for one Batch.Classify
// pass on sc: its size, its dedup ratio, the share of its unique keys
// each read tier served, and its items by resolution tier. Single
// requests (batches of one served by ClassifyCtx) never reach it. No-op
// when the engine is uninstrumented.
func (e *Engine) observeBatch(sc *batchScratch) {
	eo := e.obs
	if eo == nil {
		return
	}
	st := &sc.stats
	eo.batch.Observe(float64(st.Items))
	if exact := st.Unique + st.Deduped; exact > 0 {
		eo.batchDedup.Observe(float64(st.Deduped) / float64(exact))
	}
	if st.Unique > 0 {
		sealedKeys, memoKeys := 0, 0
		for _, tier := range sc.uniqTier {
			switch tier &^ tierWrapErr {
			case tierSealed:
				sealedKeys++
			case tierMemo:
				memoKeys++
			}
		}
		if e.sealed != nil {
			eo.batchSealedRate.Observe(float64(sealedKeys) / float64(st.Unique))
		}
		eo.batchMemoRate.Observe(float64(memoKeys) / float64(st.Unique))
	}
	eo.batchItemsSealed.Add(uint64(st.SealedHits))
	eo.batchItemsMemo.Add(uint64(st.MemoHits))
	eo.batchItemsComputed.Add(uint64(st.Computed))
	eo.batchItemsCoalesced.Add(uint64(st.Coalesced))
	eo.batchItemsInexact.Add(uint64(st.Inexact))
	eo.batchItemsError.Add(uint64(st.Errors))
}

// ratioBuckets is the bucket layout for per-batch fraction histograms
// (dedup ratio, per-tier hit rates): fixed [0, 1] resolution.
var ratioBuckets = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

// newEngineObs registers the construction-time instruments (everything
// that does not sample live engine state). Engine-state collect
// callbacks are added later by finishObs, once the job manager exists.
func newEngineObs(set *obs.Set, deciders []string) *engineObs {
	r := set.Registry
	// Process-level families ride along with every instrumented engine:
	// the Go runtime collector (GC pauses, sched latency, heap gauges)
	// and the build-info gauge. Registration is idempotent, so sharing a
	// Set across engines is fine.
	obs.RegisterRuntime(r)
	obs.RegisterBuildInfo(r)
	eo := &engineObs{
		set:     set,
		decider: map[string]*deciderObs{},
		censusRate: r.Gauge("lcl_census_entries_per_second",
			"Census classification throughput at the last progress tick (orbit representatives per second when deduplicating)."),
		checkpoint: r.Histogram("lcl_jobs_checkpoint_seconds",
			"Snapshot checkpoint duration in seconds.", nil),
		batch: r.Histogram("lcl_engine_batch_size",
			"ClassifyBatch request sizes.", obs.SizeBuckets),
		batchDedup: r.Histogram("lcl_engine_batch_dedup_ratio",
			"Per-batch fraction of exact-fingerprint items resolved by intra-batch dedup.",
			ratioBuckets),
	}
	tierRate := r.HistogramVec("lcl_engine_batch_tier_hit_rate",
		"Per-batch fraction of the deduplicated key set served by each read tier.",
		ratioBuckets, "tier")
	eo.batchSealedRate = tierRate.With("sealed")
	eo.batchMemoRate = tierRate.With("memo")
	batchItems := r.CounterVec("lcl_engine_batch_items_total",
		"Batch items by resolution tier.", "tier")
	eo.batchItemsSealed = batchItems.With("sealed")
	eo.batchItemsMemo = batchItems.With("memo")
	eo.batchItemsComputed = batchItems.With("computed")
	eo.batchItemsCoalesced = batchItems.With("coalesced")
	eo.batchItemsInexact = batchItems.With("inexact")
	eo.batchItemsError = batchItems.With("error")
	latency := r.HistogramVec("lcl_engine_request_seconds",
		"Classification latency in seconds, by decider.", nil, "decider")
	hits := r.CounterVec("lcl_engine_cache_hits_total",
		"Requests served from the memo cache, by decider.", "decider")
	misses := r.CounterVec("lcl_engine_cache_misses_total",
		"Requests that computed (or coalesced onto a computation), by decider.", "decider")
	errors := r.CounterVec("lcl_engine_request_errors_total",
		"Requests that failed, by decider.", "decider")
	// Sealed-tier counters are registered even when no table is loaded,
	// so dashboards see stable (zero) series either way.
	sealedHits := r.CounterVec("lcl_engine_sealed_hits_total",
		"Requests served from the sealed landscape table, by decider.", "decider")
	sealedMisses := r.CounterVec("lcl_engine_sealed_misses_total",
		"Requests that missed the sealed landscape table and fell through, by decider.", "decider")
	for _, name := range deciders {
		eo.decider[name] = &deciderObs{
			latency:      latency.With(name),
			hits:         hits.With(name),
			misses:       misses.With(name),
			errors:       errors.With(name),
			sealedHits:   sealedHits.With(name),
			sealedMisses: sealedMisses.With(name),
		}
	}
	return eo
}

// finishObs registers the sampled families that read live engine state
// (called at the end of New, when the cache and job manager exist).
func (e *Engine) finishObs() {
	r := e.obs.set.Registry

	// Engine request counters: the source of truth stays the existing
	// /statsz atomics; /metricsz samples them.
	r.CollectCounters("lcl_engine_requests_total",
		"Classification requests served, by decider.", []string{"decider"},
		func(emit func([]string, float64)) {
			for name, c := range e.byDecider {
				emit([]string{name}, float64(c.Load()))
			}
		})
	r.CounterFunc("lcl_engine_errors_total",
		"Classification requests that failed (all deciders plus rejects).",
		func() float64 { return float64(e.errors.Load()) })
	r.CounterFunc("lcl_engine_coalesced_total",
		"Requests that coalesced onto an identical in-flight computation.",
		func() float64 { return float64(e.coalesced.Load()) })
	r.CounterFunc("lcl_engine_unknown_mode_rejects_total",
		"Requests naming no registered decider.",
		func() float64 { return float64(e.unknownMode.Load()) })
	r.GaugeFunc("lcl_engine_workers", "Batch worker pool size.",
		func() float64 { return float64(e.workers) })
	r.GaugeFunc("lcl_engine_cached_censuses",
		"Census results held for instant serving.",
		func() float64 {
			e.censusMu.Lock()
			defer e.censusMu.Unlock()
			return float64(len(e.censuses) + len(e.pathCensuses))
		})

	// Memo cache: global counters plus per-shard balance.
	r.CounterFunc("lcl_memo_hits_total", "Memo cache hits.",
		func() float64 { return float64(e.cache.Stats().Hits) })
	r.CounterFunc("lcl_memo_misses_total", "Memo cache misses.",
		func() float64 { return float64(e.cache.Stats().Misses) })
	r.CounterFunc("lcl_memo_evictions_total", "Memo cache evictions.",
		func() float64 { return float64(e.cache.Stats().Evictions) })
	r.CounterFunc("lcl_memo_puts_total", "Memo cache puts.",
		func() float64 { return float64(e.cache.Stats().Puts) })
	r.GaugeFunc("lcl_memo_size", "Memo cache entries.",
		func() float64 { return float64(e.cache.Len()) })
	shardFamily := func(name, help string, field func(memo.ShardStat) float64) {
		r.CollectGauges(name, help, []string{"shard"},
			func(emit func([]string, float64)) {
				for i, s := range e.cache.ShardStats() {
					emit([]string{strconv.Itoa(i)}, field(s))
				}
			})
	}
	shardFamily("lcl_memo_shard_hits", "Memo cache hits, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.Hits) })
	shardFamily("lcl_memo_shard_misses", "Memo cache misses, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.Misses) })
	shardFamily("lcl_memo_shard_evictions", "Memo cache evictions, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.Evictions) })
	shardFamily("lcl_memo_shard_size", "Memo cache entries, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.Size) })
	// Batched-lookup traffic: global GetBatch counters plus per-shard
	// balance (how evenly batch probes spread across shards).
	r.CounterFunc("lcl_memo_batch_calls_total", "Memo cache GetBatch calls.",
		func() float64 { return float64(e.cache.Stats().BatchCalls) })
	r.CounterFunc("lcl_memo_batch_keys_total", "Keys probed via memo cache GetBatch.",
		func() float64 { return float64(e.cache.Stats().BatchKeys) })
	r.CounterFunc("lcl_memo_batch_hits_total", "Keys hit via memo cache GetBatch.",
		func() float64 { return float64(e.cache.Stats().BatchHits) })
	shardFamily("lcl_memo_shard_batch_gets", "Keys probed via GetBatch, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.BatchGets) })
	shardFamily("lcl_memo_shard_batch_hits", "Keys hit via GetBatch, by shard.",
		func(s memo.ShardStat) float64 { return float64(s.BatchHits) })
	memoBatch := r.Histogram("lcl_memo_batch_size",
		"GetBatch lookup sizes (census prefills and batch serving).", obs.SizeBuckets)
	e.cache.SetBatchObserver(func(keys, hits int) {
		memoBatch.Observe(float64(keys))
	})

	// Jobs: queue depth, running workers, per-state population.
	r.GaugeFunc("lcl_jobs_queue_depth", "Background jobs waiting in the queue.",
		func() float64 { return float64(e.jobMgr.Counts().QueueDepth) })
	r.GaugeFunc("lcl_jobs_running", "Background jobs currently executing.",
		func() float64 { return float64(e.jobMgr.Counts().Running) })
	r.CollectGauges("lcl_jobs", "Background jobs, by lifecycle state.", []string{"state"},
		func(emit func([]string, float64)) {
			counts := e.jobMgr.Counts().ByState
			// Emit every state, even at zero, so dashboards see stable
			// series.
			for _, st := range []jobs.State{jobs.StatePending, jobs.StateRunning,
				jobs.StateDone, jobs.StateFailed, jobs.StateCancelled, jobs.StateInterrupted} {
				emit([]string{string(st)}, float64(counts[st]))
			}
		})

	// Sealed landscape table: size and age gauges (0 when no table is
	// loaded; SealedTable accessors are nil-receiver safe).
	r.GaugeFunc("lcl_sealed_entries",
		"Precomputed verdicts in the loaded sealed landscape table (0 when none is loaded).",
		func() float64 { return float64(e.sealed.Len()) })
	r.GaugeFunc("lcl_sealed_bytes",
		"On-disk size of the loaded sealed landscape table in bytes.",
		func() float64 { return float64(e.sealed.SizeBytes()) })
	r.GaugeFunc("lcl_sealed_age_seconds",
		"Seconds since the loaded sealed landscape table was built (0 when none is loaded).",
		func() float64 {
			created := e.sealed.CreatedUnix()
			if created <= 0 {
				return 0
			}
			if age := time.Since(time.Unix(created, 0)).Seconds(); age > 0 {
				return age
			}
			return 0
		})

	// Snapshot age mirrors /statsz's AgeSeconds.
	r.GaugeFunc("lcl_snapshot_age_seconds",
		"Seconds since the newest snapshot state (0 when none exists).",
		func() float64 {
			e.censusMu.Lock()
			defer e.censusMu.Unlock()
			if e.snapTime.IsZero() {
				return 0
			}
			if age := time.Since(e.snapTime).Seconds(); age > 0 {
				return age
			}
			return 0
		})
}

// observeRequest records one served request's latency and memo outcome
// on the hot path. No-op when the engine is uninstrumented or the
// decider was registered after construction.
func (e *Engine) observeRequest(decider string, start time.Time, hit bool, err error) {
	if e.obs == nil {
		return
	}
	do := e.obs.decider[decider]
	if do == nil {
		return
	}
	do.latency.Observe(time.Since(start).Seconds())
	switch {
	case err != nil:
		do.errors.Inc()
	case hit:
		do.hits.Inc()
	default:
		do.misses.Inc()
	}
}

// observeSealed records one sealed-tier lookup outcome. No-op when the
// engine is uninstrumented or the decider was registered after
// construction.
func (e *Engine) observeSealed(decider string, hit bool) {
	if e.obs == nil {
		return
	}
	do := e.obs.decider[decider]
	if do == nil {
		return
	}
	if hit {
		do.sealedHits.Inc()
	} else {
		do.sealedMisses.Inc()
	}
}

// censusProgress wraps a census progress callback with the throughput
// gauge: each tick publishes entries-classified-per-second since the
// run started. Returns progress unchanged on an uninstrumented engine.
func (e *Engine) censusProgress(progress func(done, total int)) func(done, total int) {
	if e.obs == nil {
		return progress
	}
	start := time.Now()
	rate := e.obs.censusRate
	return func(done, total int) {
		if el := time.Since(start).Seconds(); el > 0 && done > 0 {
			rate.Set(float64(done) / el)
		}
		if progress != nil {
			progress(done, total)
		}
	}
}

// Obs returns the engine's observability set (registry, trace ring,
// logger), or nil when the engine was built with DisableObs.
func (e *Engine) Obs() *obs.Set {
	if e.obs == nil {
		return nil
	}
	return e.obs.set
}
