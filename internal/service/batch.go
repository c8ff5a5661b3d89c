// The classification pipeline. Every request the engine serves walks
// it: a batch as a whole, a single Classify as a batch of one. The
// tiers are exact fingerprint → sealed table → memo cache → singleflight
// → compute, and every per-item cost is amortized across the batch:
// all items are canonicalized into one pooled scratch arena,
// deduplicated by memo key so each orbit is resolved once (the census
// insight from the orbit-representative enumeration, applied to live
// traffic), looked up through store.SealedTable.GetBatch and
// memo.Cache.GetBatch in fingerprint-sorted order, coalesced through
// the engine's singleflight map so concurrent callers share computes,
// and fanned back out positionally. Counters and response flags are
// per item, so /statsz and /metricsz count a batch of n exactly as n
// single requests.
package service

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/decide"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/obs"
)

// DefaultMaxBatch is the /v1/classify/batch item limit when Config
// leaves MaxBatch zero. It bounds the pooled scratch arenas and the
// per-request work one HTTP call can demand.
const DefaultMaxBatch = 4096

// Per-item pipeline states (batchScratch.state).
const (
	// itemErrPre: rejected before fingerprinting (unknown mode or
	// Normalize failure) — counted as an error only, never as a served
	// request.
	itemErrPre uint8 = iota + 1
	// itemErrFp: fingerprinting failed — counted as a served request
	// that errored.
	itemErrFp
	// itemInexact: inexact fingerprint; computed individually and never
	// cached. Such a fingerprint (canonical permutation search over
	// budget) is only invariant in one direction: isomorphic problems
	// agree, but refinement-indistinguishable non-isomorphic problems
	// may collide, so caching under it could serve one problem the
	// other's answer.
	itemInexact
	// itemExact: exact fingerprint; participates in dedup and the
	// sealed/memo/singleflight tiers.
	itemExact
)

// Per-unique-key resolution tiers (batchScratch.tier).
const (
	tierNone uint8 = iota
	// tierSealed: served by the read-only sealed landscape table.
	tierSealed
	// tierMemo: served by the memo cache.
	tierMemo
	// tierOwned: this pass registered the in-flight call and computed.
	tierOwned
	// tierJoined: coalesced onto another caller's in-flight computation.
	tierJoined
)

// batchIdent is the identity-prefilter key: two items that agree on it
// are literal duplicates (same problem pointers, same raw parameters),
// so the second replays the first's entire stage-1 outcome — mode
// resolution, normalization, and fingerprint are all pure functions of
// the request — without re-running any of it. The HTTP handler decodes
// duplicate raw problem payloads to one shared *lcl.Problem precisely
// to light this up.
type batchIdent struct {
	mode      string
	problem   *lcl.Problem
	rooted    *decide.RootedProblem
	maxLevels int
	maxRadius int
	dims      int
}

// batchScratch is the pooled per-pass arena: every per-item and
// per-unique-key slice the pipeline needs, reused across passes so a
// steady-state pass allocates nothing beyond what its misses compute.
type batchScratch struct {
	// Per-item (parallel to the request slice).
	reqs  []Request
	ds    []decide.Decider
	fps   []uint64
	keys  []uint64
	state []uint8
	errs  []error
	group []int32 // index into the unique arrays; -1 = not grouped
	dupOf []int32 // identity-prefilter representative; -1 = first occurrence
	vals1 []any   // inexact items' computed payloads
	ident map[batchIdent]int32

	// Per-unique-key (built by the dedup stage, fingerprint-sorted).
	order    []batchKey
	uniqKeys []uint64
	uniqRep  []int32
	uniqVals []any
	uniqIdx  []int32 // sealed entry index, -1 = miss
	uniqTier []uint8
	uniqErr  []error
	uniqVerd []*decide.Verdict
	calls    []*call
	missKeys []uint64
	missVals []any
	missPos  []int32

	// Positional results handed to the caller.
	resps []Response
	items []BatchItem
	stats BatchStats

	// wg synchronizes the compute stage. It lives in the arena because
	// the compute closures capture it: a local would escape and cost an
	// allocation even on passes that compute nothing.
	wg sync.WaitGroup
}

func newBatchScratch() *batchScratch {
	return &batchScratch{ident: map[batchIdent]int32{}}
}

// batchScratchPool holds the arenas of batches (NewBatch). An arena grows
// with its batch, so a free list keeps them: the arenas the engine holds
// between batches are the same from one batch to the next, rather than
// whatever the last garbage collection left in a sync.Pool.
var batchScratchPool = newFreeList(newBatchScratch)

// singleScratchPool holds the batch-of-one arenas of single requests
// (Engine.ClassifyCtx). They are small and taken once a request, so they
// stay in a sync.Pool, whose per-processor caches cost a request less
// than a list the processors share.
var singleScratchPool = sync.Pool{New: func() any { return newBatchScratch() }}

// reset drops every reference the previous pass left in the arena and
// sizes the per-item slices to n. It clears exactly the slots the
// previous pass used — the current lengths — before reslicing, so a
// small pass after a large one neither pays for the large one's
// capacity nor keeps its requests alive beyond n.
func (sc *batchScratch) reset(n int) {
	clear(sc.reqs)
	clear(sc.ds)
	clear(sc.errs)
	clear(sc.vals1)
	clear(sc.ident)
	clear(sc.uniqVals)
	clear(sc.uniqErr)
	clear(sc.uniqVerd)
	clear(sc.calls)
	clear(sc.missVals)
	clear(sc.resps)
	clear(sc.items)
	if cap(sc.reqs) < n {
		sc.reqs = make([]Request, n)
		sc.ds = make([]decide.Decider, n)
		sc.fps = make([]uint64, n)
		sc.keys = make([]uint64, n)
		sc.state = make([]uint8, n)
		sc.errs = make([]error, n)
		sc.group = make([]int32, n)
		sc.dupOf = make([]int32, n)
		sc.vals1 = make([]any, n)
		sc.resps = make([]Response, n)
		sc.items = make([]BatchItem, n)
	}
	sc.reqs = sc.reqs[:n]
	sc.ds = sc.ds[:n]
	sc.fps = sc.fps[:n]
	sc.keys = sc.keys[:n]
	sc.state = sc.state[:n]
	sc.errs = sc.errs[:n]
	sc.group = sc.group[:n]
	sc.dupOf = sc.dupOf[:n]
	sc.vals1 = sc.vals1[:n]
	sc.resps = sc.resps[:n]
	sc.items = sc.items[:n]
	sc.order = sc.order[:0]
	sc.uniqKeys = sc.uniqKeys[:0]
	sc.uniqRep = sc.uniqRep[:0]
	sc.uniqVals = sc.uniqVals[:0]
	sc.uniqIdx = sc.uniqIdx[:0]
	sc.uniqTier = sc.uniqTier[:0]
	sc.uniqErr = sc.uniqErr[:0]
	sc.uniqVerd = sc.uniqVerd[:0]
	sc.calls = sc.calls[:0]
	sc.missKeys = sc.missKeys[:0]
	sc.missVals = sc.missVals[:0]
	sc.missPos = sc.missPos[:0]
	sc.stats = BatchStats{Items: n}
}

// BatchStats summarizes one Batch.Classify run.
type BatchStats struct {
	// Items is the batch size; Unique is the number of distinct memo
	// keys among exact-fingerprint items; Deduped counts items served by
	// fanning out another item's result (Items with exact fingerprints
	// minus Unique).
	Items   int `json:"items"`
	Unique  int `json:"unique"`
	Deduped int `json:"deduped"`
	// Per-item tier tallies: where each successful item's result came
	// from. Coalesced counts items that shared a computation (intra-batch
	// duplicates of a computed key plus joins onto other callers'
	// in-flight computes); Computed counts the computations this batch
	// ran itself (owned keys plus inexact items).
	SealedHits int `json:"sealed_hits"`
	MemoHits   int `json:"memo_hits"`
	Computed   int `json:"computed"`
	Coalesced  int `json:"coalesced"`
	Inexact    int `json:"inexact"`
	Errors     int `json:"errors"`
}

// Batch is a reusable batch-classification context wrapping the pooled
// scratch arena. It is NOT safe for concurrent use; acquire one per
// goroutine with Engine.NewBatch. Results returned by Classify point
// into the arena and are valid only until the next Classify or Release
// — callers that retain results must copy them (or use
// Engine.ClassifyBatchCtx, which does).
type Batch struct {
	e     *Engine
	sc    *batchScratch
	stats BatchStats
}

// NewBatch acquires a batch context backed by a pooled scratch arena.
// Callers must Release it when done.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e, sc: batchScratchPool.get()}
}

// Release returns the arena to the pool. The Batch and any results from
// its Classify calls are invalid afterwards. Release is idempotent.
func (b *Batch) Release() {
	if b.sc == nil {
		return
	}
	batchScratchPool.put(b.sc)
	b.sc = nil
}

// Stats returns the summary of the most recent Classify call.
func (b *Batch) Stats() BatchStats { return b.stats }

// Classify serves one batch through the pipeline. Results are
// positional and valid until the next Classify or Release. See
// Engine.ClassifyBatchCtx for the pipeline contract.
func (b *Batch) Classify(ctx context.Context, reqs []Request) []BatchItem {
	items := b.e.classify(ctx, b.sc, reqs)
	b.stats = b.sc.stats
	b.e.observeBatch(b.sc)
	return items
}

// classify runs reqs through the pipeline on arena sc and returns the
// positional results (valid until sc's next pass). It records per-item
// counters and per-stage trace spans — a span only for a stage that did
// work — but no batch-level observations, so a single request served as
// a batch of one counts exactly like a single request.
func (e *Engine) classify(ctx context.Context, sc *batchScratch, reqs []Request) []BatchItem {
	n := len(reqs)
	sc.reset(n)
	if n == 0 {
		return sc.items
	}
	st := &sc.stats
	tr := obs.TraceFrom(ctx)
	var start, spanStart time.Time
	if e.obs != nil {
		start = time.Now()
	}

	// Stage 1: resolve, normalize, fingerprint. The identity prefilter
	// runs first, on the raw request: a literal duplicate replays its
	// first occurrence's entire stage-1 outcome and skips the registry
	// lookup and the canonicalization, the dominant per-item costs of a
	// duplicate-heavy batch. Counters still count every item.
	if tr != nil {
		spanStart = time.Now()
	}
	exactItems, inexact := 0, 0
	for i := range reqs {
		sc.reqs[i] = reqs[i]
		sc.group[i] = -1
		sc.dupOf[i] = -1
		// A batch of one has no duplicates; skipping the map also keeps a
		// single request from clearing a map a large batch has grown.
		if n > 1 {
			id := batchIdent{
				mode:      reqs[i].Mode,
				problem:   reqs[i].Problem,
				rooted:    reqs[i].Rooted,
				maxLevels: reqs[i].MaxLevels,
				maxRadius: reqs[i].MaxRadius,
				dims:      reqs[i].Dims,
			}
			if j, ok := sc.ident[id]; ok {
				sc.dupOf[i] = j
				sc.reqs[i] = sc.reqs[j]
				sc.ds[i] = sc.ds[j]
				sc.state[i] = sc.state[j]
				sc.fps[i] = sc.fps[j]
				sc.keys[i] = sc.keys[j]
				sc.errs[i] = sc.errs[j]
			} else {
				sc.ident[id] = int32(i)
			}
		}
		if sc.dupOf[i] < 0 {
			e.resolve(sc, i)
		}
		e.countItem(sc.ds[i], sc.state[i])
		switch sc.state[i] {
		case itemExact:
			exactItems++
		case itemInexact:
			inexact++
		}
	}
	tr.Record("fingerprint", spanStart)

	// Stage 2: dedup by memo key, fingerprint-sorted. Sorting gives the
	// unique set a deterministic probe order for the batched lookups
	// below and makes duplicate detection a linear adjacency scan.
	if tr != nil {
		spanStart = time.Now()
	}
	// Identity duplicates stay out of the sort: they inherit their
	// representative's group below, so the sort scales with the distinct
	// requests, not the batch size. (The earliest item holding a key is
	// always an identity representative — a duplicate's first occurrence
	// precedes it with the same key — so the rep-is-earliest invariant
	// survives the exclusion.)
	for i := 0; i < n; i++ {
		if sc.state[i] == itemExact && sc.dupOf[i] < 0 {
			sc.order = append(sc.order, batchKey{key: sc.keys[i], item: int32(i)})
		}
	}
	// cmpBatchKey is a package-level function so the sort allocates
	// nothing (a capturing closure would escape into the generic sort).
	slices.SortFunc(sc.order, cmpBatchKey)
	for _, ki := range sc.order {
		i := ki.item
		if len(sc.uniqKeys) == 0 || sc.uniqKeys[len(sc.uniqKeys)-1] != ki.key {
			sc.uniqKeys = append(sc.uniqKeys, ki.key)
			sc.uniqRep = append(sc.uniqRep, i)
			sc.uniqVals = append(sc.uniqVals, nil)
			sc.uniqIdx = append(sc.uniqIdx, -1)
			sc.uniqTier = append(sc.uniqTier, tierNone)
			sc.uniqErr = append(sc.uniqErr, nil)
			sc.uniqVerd = append(sc.uniqVerd, nil)
			sc.calls = append(sc.calls, nil)
		}
		sc.group[i] = int32(len(sc.uniqKeys) - 1)
	}
	for i := 0; i < n; i++ {
		if j := sc.dupOf[i]; j >= 0 {
			sc.group[i] = sc.group[j]
		}
	}
	uniq := len(sc.uniqKeys)
	st.Unique = uniq
	st.Deduped = exactItems - uniq
	st.Inexact = inexact
	if exactItems > 1 {
		tr.Record("dedup", spanStart)
	}

	// Stage 3: sealed tier, one lock-free multi-probe sweep over the
	// sorted unique keys. Entry indices feed the engine's memoized
	// verdict wrappers, so a sealed-hit item allocates nothing.
	if e.sealed != nil && uniq > 0 {
		if tr != nil {
			spanStart = time.Now()
		}
		e.sealed.GetBatch(sc.uniqKeys, sc.uniqVals, sc.uniqIdx)
		tr.Record("sealed-get", spanStart)
		for u := 0; u < uniq; u++ {
			if sc.uniqIdx[u] >= 0 {
				sc.uniqTier[u] = tierSealed
			}
		}
	}

	// Stage 4: memo tier + singleflight for the residual misses, under
	// one e.mu acquisition for the whole pass. The memo lookup happens
	// under the lock: the computing goroutine fills the cache before
	// unregistering its call, so an owned key's computation is
	// registered before anyone else can race it, each unique key counts
	// at most one memo miss, and joiners either see the in-flight call
	// or hit the cache it filled — an identical request is never
	// computed twice.
	owned, joined := 0, 0
	for u := 0; u < uniq; u++ {
		if sc.uniqTier[u] == tierNone {
			sc.missKeys = append(sc.missKeys, sc.uniqKeys[u])
			sc.missVals = append(sc.missVals, nil)
			sc.missPos = append(sc.missPos, int32(u))
		}
	}
	if len(sc.missKeys) > 0 {
		if tr != nil {
			spanStart = time.Now()
		}
		e.mu.Lock()
		e.cache.GetBatch(sc.missKeys, sc.missVals)
		for j, u := range sc.missPos {
			if sc.missVals[j] != nil {
				sc.uniqVals[u] = sc.missVals[j]
				sc.uniqTier[u] = tierMemo
				continue
			}
			key := sc.uniqKeys[u]
			if c, ok := e.inflight[key]; ok {
				sc.calls[u] = c
				sc.uniqTier[u] = tierJoined
				joined++
				continue
			}
			c := &call{done: make(chan struct{})}
			e.inflight[key] = c
			sc.calls[u] = c
			sc.uniqTier[u] = tierOwned
			owned++
		}
		e.mu.Unlock()
		tr.Record("memo-get", spanStart)
	}

	// Stage 5: compute owned keys and inexact items. A pass with exactly
	// one compute runs it on the caller's goroutine (so a single request
	// never queues behind the worker pool, and Classify keeps working
	// after Close); more fan out across the pool.
	if computes := owned + inexact; computes == 1 {
		for u := 0; u < uniq; u++ {
			if sc.uniqTier[u] == tierOwned {
				e.computeOwned(sc, u, tr)
			}
		}
		for i := 0; i < n; i++ {
			if sc.state[i] == itemInexact {
				e.computeInexact(ctx, sc, i, tr)
			}
		}
	} else if computes > 1 {
		if tr != nil {
			spanStart = time.Now()
		}
		wg := &sc.wg
		for u := 0; u < uniq; u++ {
			if sc.uniqTier[u] != tierOwned {
				continue
			}
			wg.Add(1)
			e.jobs <- func() {
				defer wg.Done()
				e.computeOwned(sc, u, nil)
			}
		}
		for i := 0; i < n; i++ {
			if sc.state[i] != itemInexact {
				continue
			}
			wg.Add(1)
			e.jobs <- func() {
				defer wg.Done()
				e.computeInexact(ctx, sc, i, nil)
			}
		}
		wg.Wait()
		tr.Record("compute", spanStart)
	}
	// Collect owned results and wait out joined keys' foreign computes.
	if tr != nil && joined > 0 {
		spanStart = time.Now()
	}
	for u := 0; u < uniq; u++ {
		if tier := sc.uniqTier[u]; tier == tierOwned || tier == tierJoined {
			c := sc.calls[u]
			<-c.done
			sc.uniqVals[u], sc.uniqErr[u] = c.payload, c.err
		}
	}
	if joined > 0 {
		tr.Record("coalesce", spanStart)
	}

	// Stage 6: wrap each unique payload once. Verdicts (and their
	// details) are immutable wire views, so duplicates share them;
	// sealed entries memoize theirs on the engine for the table's
	// lifetime. A payload the decider does not recognize — a cache entry
	// written by other code under a colliding key, say — is an explicit
	// per-item error, never a silently empty response.
	if tr != nil {
		spanStart = time.Now()
	}
	for u := 0; u < uniq; u++ {
		if sc.uniqErr[u] != nil {
			continue
		}
		d := sc.ds[sc.uniqRep[u]]
		var v *decide.Verdict
		var err error
		if sc.uniqTier[u] == tierSealed {
			v, err = e.sealedVerdict(d, sc.uniqIdx[u], sc.uniqVals[u])
		} else {
			v, err = d.WrapPayload(sc.uniqVals[u])
		}
		if err != nil {
			sc.uniqErr[u] = fmt.Errorf("service: %s: %w", d.Name(), err)
			// Distinguish from compute errors: those were already counted
			// once by the computing goroutine (the rep's share); wrap
			// errors are counted per item in the fan-out.
			sc.uniqTier[u] |= tierWrapErr
			continue
		}
		sc.uniqVerd[u] = v
	}
	if uniq > 0 {
		tr.Record("wrap", spanStart)
	}

	// Stage 7: fan out positionally, counting every item.
	for i := 0; i < n; i++ {
		switch sc.state[i] {
		case itemErrPre:
			sc.items[i].Err = sc.errs[i]
			st.Errors++
		case itemErrFp:
			e.fail(sc, i, sc.errs[i], start)
		case itemInexact:
			if sc.errs[i] != nil {
				e.fail(sc, i, sc.errs[i], start)
				continue
			}
			v, err := sc.ds[i].WrapPayload(sc.vals1[i])
			if err != nil {
				e.errors.Add(1)
				e.fail(sc, i, fmt.Errorf("service: %s: %w", sc.ds[i].Name(), err), start)
				continue
			}
			st.Computed++
			e.serve(sc, i, v, sc.vals1[i], tierOwned, start)
		case itemExact:
			u := sc.group[i]
			tier := sc.uniqTier[u] &^ tierWrapErr
			// Every exact item probed the sealed tier (as one sweep), so
			// each counts a sealed outcome.
			if e.sealed != nil {
				if tier == tierSealed {
					e.sealedHits.Add(1)
				} else {
					e.sealedMisses.Add(1)
				}
				e.observeSealed(sc.ds[i].Name(), tier == tierSealed)
			}
			if err := sc.uniqErr[u]; err != nil {
				// The computing goroutine counted the rep's error for
				// owned compute failures; every other item (duplicates,
				// joins, wrap failures) counts its own.
				ownedRep := sc.uniqTier[u] == tierOwned && sc.uniqRep[u] == int32(i)
				if !ownedRep {
					e.errors.Add(1)
				}
				e.fail(sc, i, err, start)
				continue
			}
			if tier == tierOwned && sc.uniqRep[u] != int32(i) {
				// An intra-batch duplicate of a computed key shares the
				// computation, like a join.
				tier = tierJoined
			}
			switch tier {
			case tierSealed:
				st.SealedHits++
			case tierMemo:
				st.MemoHits++
			case tierOwned:
				st.Computed++
			case tierJoined:
				e.coalesced.Add(1)
				st.Coalesced++
			}
			e.serve(sc, i, sc.uniqVerd[u], sc.uniqVals[u], tier, start)
		}
	}
	return sc.items
}

// resolve runs stage 1 for item i of sc: decider lookup, Normalize,
// Fingerprint, and the memo key of an exact fingerprint.
func (e *Engine) resolve(sc *batchScratch, i int) {
	req := &sc.reqs[i]
	d, ok := e.registry.Get(req.Mode)
	if !ok {
		sc.errs[i] = fmt.Errorf("service: unknown mode %q (registered: %s)",
			req.Mode, strings.Join(e.registry.Names(), ", "))
		sc.state[i] = itemErrPre
		return
	}
	sc.ds[i] = d
	if err := d.Normalize(req); err != nil {
		sc.errs[i], sc.state[i] = err, itemErrPre
		return
	}
	fp, exact, err := d.Fingerprint(req)
	switch {
	case err != nil:
		sc.errs[i], sc.state[i] = err, itemErrFp
	case !exact:
		sc.fps[i], sc.state[i] = fp, itemInexact
	default:
		sc.fps[i], sc.state[i] = fp, itemExact
		sc.keys[i] = memo.Key(d.MemoDomain(req), fp)
	}
}

// countItem updates the serving counters for one item's stage-1
// outcome. Unknown modes (d == nil) get their own reject counter, so
// they pollute no decider's bucket; Normalize rejections count only as
// errors, never as served requests, which keeps Requests/Errors
// comparable across versions.
func (e *Engine) countItem(d decide.Decider, state uint8) {
	if state == itemErrPre {
		if d == nil {
			e.unknownMode.Add(1)
		}
		e.errors.Add(1)
		return
	}
	e.requests.Add(1)
	// The counter map is snapshotted at construction; a decider
	// registered after New still serves (registry lookups are live) but
	// has no per-decider bucket.
	if counter, ok := e.byDecider[d.Name()]; ok {
		counter.Add(1)
	}
	if state == itemErrFp {
		e.errors.Add(1)
	}
}

// computeOwned computes owned unique key u under the background context
// — later identical requests coalesce onto it, and the first caller
// hanging up must not fail them — then fills the cache before
// unregistering the call, the singleflight invariant. tr gets compute
// and memo-put spans (nil when the compute runs on the worker pool).
func (e *Engine) computeOwned(sc *batchScratch, u int, tr *obs.Trace) {
	rep, c, key := sc.uniqRep[u], sc.calls[u], sc.uniqKeys[u]
	var spanStart time.Time
	if tr != nil {
		spanStart = time.Now()
	}
	c.payload, c.err = sc.ds[rep].Compute(context.Background(), &sc.reqs[rep])
	tr.Record("compute", spanStart)
	if c.err == nil {
		if tr != nil {
			spanStart = time.Now()
		}
		e.cache.Put(key, c.payload)
		tr.Record("memo-put", spanStart)
	} else {
		e.errors.Add(1)
	}
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
}

// computeInexact computes inexact item i under the caller's context:
// it is never cached or coalesced, so no one else waits on it.
func (e *Engine) computeInexact(ctx context.Context, sc *batchScratch, i int, tr *obs.Trace) {
	var spanStart time.Time
	if tr != nil {
		spanStart = time.Now()
	}
	payload, err := sc.ds[i].Compute(ctx, &sc.reqs[i])
	tr.Record("compute", spanStart)
	if err != nil {
		e.errors.Add(1)
		sc.errs[i] = err
		return
	}
	sc.vals1[i] = payload
}

// serve fills item i's response from verdict v over payload, served
// from tier, and observes it.
func (e *Engine) serve(sc *batchScratch, i int, v *decide.Verdict, payload any, tier uint8, start time.Time) {
	hit := tier == tierSealed || tier == tierMemo
	sc.resps[i] = Response{
		Mode:        sc.reqs[i].Mode,
		Fingerprint: sc.fps[i],
		CacheHit:    hit,
		Coalesced:   tier == tierJoined,
		Sealed:      tier == tierSealed,
		Class:       v.Class,
		Detail:      v.Detail,
		Payload:     payload,
	}
	sc.items[i].Response = &sc.resps[i]
	e.observeRequest(sc.ds[i].Name(), start, hit, nil)
}

// fail records item i's error (already counted by the caller) and
// observes it.
func (e *Engine) fail(sc *batchScratch, i int, err error, start time.Time) {
	sc.items[i].Err = err
	sc.stats.Errors++
	e.observeRequest(sc.ds[i].Name(), start, false, err)
}

// batchKey pairs an item's memo key with its batch position for the
// dedup sort: items order by key (the deterministic probe order for the
// batched lookups) and by position within a key, so the dedup
// representative is always the earliest occurrence.
type batchKey struct {
	key  uint64
	item int32
}

func cmpBatchKey(a, b batchKey) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	default:
		return int(a.item - b.item)
	}
}

// tierWrapErr marks a unique key whose payload failed WrapPayload (OR'd
// onto the tier so the fan-out can tell wrap failures — counted per
// item — from compute failures, whose rep share was already counted).
const tierWrapErr uint8 = 0x80

// sealedVerdict returns the wrapped verdict for sealed entry idx,
// memoizing it on the engine: sealed entries are a fixed immutable set
// and WrapPayload is a pure function of the payload, so each entry is
// wrapped at most a handful of times (racing fills store the same
// value) and sealed-hit items allocate nothing at steady state.
func (e *Engine) sealedVerdict(d decide.Decider, idx int32, payload any) (*decide.Verdict, error) {
	if idx < 0 || int(idx) >= len(e.sealedVerdicts) {
		return d.WrapPayload(payload)
	}
	slot := &e.sealedVerdicts[idx]
	if v := slot.Load(); v != nil {
		return v, nil
	}
	v, err := d.WrapPayload(payload)
	if err != nil {
		return nil, err
	}
	slot.Store(v)
	return v, nil
}

// ClassifyBatchCtx serves one batch through the pipeline: one pooled
// scratch arena canonicalizes every item, items are deduplicated by
// memo key so each orbit classifies once, the deduplicated set resolves
// through SealedTable.GetBatch and memo.Cache.GetBatch in
// fingerprint-sorted order, residual misses coalesce through the engine
// singleflight (shared with concurrent batches and single requests),
// and results fan back out positionally. Results are freshly allocated
// and safe to retain; latency-sensitive callers that control result
// lifetime use Engine.NewBatch to skip the copy. A batch with more than
// one compute needs the worker pool, so it is not usable after Close.
func (e *Engine) ClassifyBatchCtx(ctx context.Context, reqs []Request) []BatchItem {
	b := e.NewBatch()
	defer b.Release()
	items := b.Classify(ctx, reqs)
	out := make([]BatchItem, len(items))
	resps := make([]Response, len(items))
	for i := range items {
		if items[i].Response != nil {
			resps[i] = *items[i].Response
			out[i].Response = &resps[i]
		}
		out[i].Err = items[i].Err
	}
	return out
}

// ClassifyBatch is ClassifyBatchCtx under the background context.
// Results are positional; identical problems inside one batch resolve
// to a single computation.
func (e *Engine) ClassifyBatch(reqs []Request) []BatchItem {
	return e.ClassifyBatchCtx(context.Background(), reqs)
}

// MaxBatch returns the configured batch item limit (DefaultMaxBatch
// unless Config.MaxBatch overrode it). The HTTP layer rejects larger
// /v1/classify/batch requests with 413.
func (e *Engine) MaxBatch() int { return e.maxBatch }
