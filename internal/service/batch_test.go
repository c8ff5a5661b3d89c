// Tests for the vectorized batch pipeline (batch.go): edge cases
// (empty, all-duplicates, mixed-decider, partial failure, limits),
// bit-identity against the per-item path, sealed batch serving, the
// zero-alloc steady state, and singleflight sharing across concurrent
// overlapping batches.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/problems"
)

// batchRequests is the mixed-decider request set the batch tests share:
// two label-isomorphic cycle problems (intra-batch dedup across
// distinct pointers), a literal repeat (identity prefilter), and one
// request per remaining decider.
func batchRequests() []Request {
	coloring := problems.Coloring(3, 2)
	return []Request{
		{Mode: ModeCycles, Problem: coloring},
		{Mode: ModeCycles, Problem: relabeled3Coloring()},
		{Mode: ModeCycles, Problem: coloring},
		{Mode: ModeTrees, Problem: problems.Trivial(2)},
		{Mode: ModePathsInputs, Problem: problems.Coloring(3, 2)},
		{Mode: ModeSynthesize, Problem: problems.Trivial(2)},
		{Mode: ModeRooted, Rooted: rootedTwoColoring()},
		{Mode: ModeGrid, Dims: 1, Problem: enumerate.FromMasks(1, 1, 1)},
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	e := newTestEngine(t)
	if items := e.ClassifyBatch(nil); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
	if items := e.ClassifyBatch([]Request{}); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
	if st := e.Stats(); st.Requests != 0 || st.Errors != 0 {
		t.Fatalf("empty batch touched counters: %+v", st)
	}
}

func TestClassifyBatchAllDuplicates(t *testing.T) {
	e := newTestEngine(t)
	p := problems.Coloring(3, 2)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Mode: ModeCycles, Problem: p}
	}
	b := e.NewBatch()
	defer b.Release()
	items := b.Classify(context.Background(), reqs)
	if len(items) != len(reqs) {
		t.Fatalf("got %d items, want %d", len(items), len(reqs))
	}
	first := items[0].Response
	if items[0].Err != nil || first == nil {
		t.Fatalf("item 0: %v", items[0].Err)
	}
	if first.CacheHit || first.Coalesced {
		t.Fatalf("representative should have computed: %+v", first)
	}
	for i, item := range items[1:] {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i+1, item.Err)
		}
		r := item.Response
		if !r.Coalesced {
			t.Errorf("duplicate item %d not marked coalesced: %+v", i+1, r)
		}
		if r.Fingerprint != first.Fingerprint || r.Class != first.Class {
			t.Errorf("duplicate item %d diverged: %+v vs %+v", i+1, r, first)
		}
		if r.Payload != first.Payload {
			t.Errorf("duplicate item %d does not share the payload", i+1)
		}
	}
	st := b.Stats()
	if st.Unique != 1 || st.Deduped != 15 || st.Computed != 1 || st.Coalesced != 15 {
		t.Fatalf("batch stats: %+v", st)
	}
	// Exactly one computation reached the cache: one miss, one put.
	if cs := e.Stats().Cache; cs.Misses != 1 || cs.Puts != 1 {
		t.Fatalf("cache stats after all-duplicates batch: %+v", cs)
	}
	if got := e.Stats().Requests; got != 16 {
		t.Fatalf("requests = %d, want 16 (every item counts)", got)
	}
}

func TestClassifyBatchMixedDeciders(t *testing.T) {
	e := newTestEngine(t)
	reqs := batchRequests()
	items := e.ClassifyBatch(reqs)
	if len(items) != len(reqs) {
		t.Fatalf("got %d items, want %d", len(items), len(reqs))
	}
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d (%s): %v", i, reqs[i].Mode, item.Err)
		}
		if item.Response.Mode != reqs[i].Mode {
			t.Errorf("item %d: mode %q, want %q (positional order broken?)",
				i, item.Response.Mode, reqs[i].Mode)
		}
	}
	// The three cycle items share one orbit: the isomorph and the
	// literal repeat both resolve to item 0's computation.
	if items[0].Response.Fingerprint != items[1].Response.Fingerprint ||
		items[0].Response.Fingerprint != items[2].Response.Fingerprint {
		t.Error("isomorphic cycle items have different fingerprints")
	}
	if !items[1].Response.Coalesced || !items[2].Response.Coalesced {
		t.Error("intra-batch duplicates not coalesced")
	}
	if items[0].Response.Class != decide.LogStar {
		t.Errorf("3-coloring class: %v", items[0].Response.Class)
	}
}

// TestClassifyBatchMatchesPerItem is the bit-identity acceptance
// criterion: per position, the batch pipeline returns the same verdict
// (mode, fingerprint, class, detail JSON, payload) as the per-item
// path, on cold engines; and on a warm engine the full responses —
// serving flags included — are identical.
func TestClassifyBatchMatchesPerItem(t *testing.T) {
	reqs := batchRequests()

	perItem := New(Config{Workers: 4, DisableObs: true})
	defer perItem.Close()
	batch := New(Config{Workers: 4, DisableObs: true})
	defer batch.Close()

	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		resp, err := perItem.Classify(req)
		if err != nil {
			t.Fatalf("per-item %d: %v", i, err)
		}
		want[i] = resp
	}
	items := batch.ClassifyBatch(reqs)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("batch item %d: %v", i, item.Err)
		}
		got := item.Response
		if got.Mode != want[i].Mode || got.Fingerprint != want[i].Fingerprint || got.Class != want[i].Class {
			t.Errorf("item %d: got (%s, %016x, %v), want (%s, %016x, %v)",
				i, got.Mode, got.Fingerprint, got.Class,
				want[i].Mode, want[i].Fingerprint, want[i].Class)
		}
		gj, _ := json.Marshal(got.Detail)
		wj, _ := json.Marshal(want[i].Detail)
		if string(gj) != string(wj) {
			t.Errorf("item %d detail: %s != %s", i, gj, wj)
		}
		if !reflect.DeepEqual(got.Payload, want[i].Payload) {
			t.Errorf("item %d payloads differ", i)
		}
	}

	// Warm identity: both paths now hit the memo cache, so responses
	// must match field for field, flags included.
	for i, req := range reqs {
		resp, err := perItem.Classify(req)
		if err != nil {
			t.Fatalf("warm per-item %d: %v", i, err)
		}
		want[i] = resp
	}
	// The batch engine's cache was warmed by its own first pass;
	// compare the second pass field for field (details via JSON —
	// the two engines hold distinct but equal detail values).
	items = batch.ClassifyBatch(reqs)
	for i, item := range items {
		got := item.Response
		if got == nil {
			t.Fatalf("warm batch item %d: %v", i, item.Err)
		}
		w := want[i]
		if got.Mode != w.Mode || got.Fingerprint != w.Fingerprint || got.Class != w.Class ||
			got.CacheHit != w.CacheHit || got.Coalesced != w.Coalesced || got.Sealed != w.Sealed {
			t.Errorf("warm item %d: %+v != %+v", i, got, w)
		}
		gj, _ := json.Marshal(got.Detail)
		wj, _ := json.Marshal(w.Detail)
		if string(gj) != string(wj) {
			t.Errorf("warm item %d detail: %s != %s", i, gj, wj)
		}
	}
}

// TestClassifyBatchPartialFailure: invalid items keep their slot and
// error; valid items around them are served.
func TestClassifyBatchPartialFailure(t *testing.T) {
	e := newTestEngine(t)
	reqs := []Request{
		{Mode: ModeCycles, Problem: problems.Coloring(3, 2)},
		{Mode: "no-such-mode", Problem: problems.Coloring(3, 2)},
		{Mode: ModeTrees}, // missing problem: Normalize rejects
		{Mode: ModeCycles, Problem: problems.Coloring(3, 2)},
	}
	items := e.ClassifyBatch(reqs)
	if items[0].Err != nil || items[0].Response == nil {
		t.Fatalf("item 0: %v", items[0].Err)
	}
	if items[1].Err == nil {
		t.Fatal("unknown mode did not error")
	}
	if items[2].Err == nil {
		t.Fatal("missing problem did not error")
	}
	if items[3].Err != nil || items[3].Response == nil {
		t.Fatalf("item 3: %v", items[3].Err)
	}
	if !items[3].Response.Coalesced {
		t.Errorf("item 3 duplicates item 0 and should coalesce: %+v", items[3].Response)
	}
	st := e.Stats()
	// Items 1 and 2 are rejected before serving: errors only, never
	// requests — same accounting as the per-item path.
	if st.Requests != 2 || st.Errors != 2 || st.UnknownModeRejects != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClassifyBatchSealed: a batch over sealed-space problems is served
// entirely from the sealed tier, with verdicts identical to Get's.
func TestClassifyBatchSealed(t *testing.T) {
	tbl := buildTestSealed(t)
	e := New(Config{Sealed: tbl, DisableObs: true})
	defer e.Close()

	pairSpace := uint(1) << uint(enumerate.PairCount(2))
	var reqs []Request
	for n2 := uint(0); n2 < pairSpace; n2++ {
		for edge := uint(0); edge < pairSpace; edge++ {
			reqs = append(reqs, Request{Mode: ModeCycles, Problem: enumerate.FromMasks(2, n2, edge)})
		}
	}
	b := e.NewBatch()
	defer b.Release()
	items := b.Classify(context.Background(), reqs)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		r := item.Response
		if !r.Sealed || !r.CacheHit {
			t.Fatalf("item %d not served sealed: %+v", i, r)
		}
		single, err := e.Classify(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Class != single.Class || r.Fingerprint != single.Fingerprint {
			t.Errorf("item %d diverges from single-request serving", i)
		}
		if !reflect.DeepEqual(r.Payload, single.Payload) {
			t.Errorf("item %d payload diverges from single-request serving", i)
		}
	}
	if st := b.Stats(); st.SealedHits != st.Items || st.MemoHits != 0 || st.Computed != 0 {
		t.Fatalf("sealed batch stats: %+v (want every item sealed)", st)
	}
}

// TestClassifyBatchSealedZeroAlloc: steady-state batch serving of
// sealed hits allocates nothing per item (the acceptance criterion the
// CI bench gate pins; this is the in-tree witness).
func TestClassifyBatchSealedZeroAlloc(t *testing.T) {
	tbl := buildTestSealed(t)
	e := New(Config{Sealed: tbl, DisableObs: true})
	defer e.Close()

	var reqs []Request
	for n2 := uint(0); n2 < 8; n2++ {
		reqs = append(reqs, Request{Mode: ModeCycles, Problem: enumerate.FromMasks(2, n2, 3)})
	}
	b := e.NewBatch()
	defer b.Release()
	ctx := context.Background()
	// Warm: fills the pooled arena and the engine's sealed verdict
	// memos.
	b.Classify(ctx, reqs)
	allocs := testing.AllocsPerRun(100, func() {
		items := b.Classify(ctx, reqs)
		if items[0].Err != nil {
			t.Fatal(items[0].Err)
		}
	})
	if allocs > 0 {
		t.Fatalf("sealed-hit batch allocates %.2f allocs per batch, want 0", allocs)
	}
}

// TestBatchArenaResetDropsPreviousPass: a batch of one after a large
// batch on the same arena leaves no reference beyond index 0, in the
// per-item slots or the per-unique ones, so the arena does not keep the
// large batch's problems and payloads alive.
func TestBatchArenaResetDropsPreviousPass(t *testing.T) {
	e := newTestEngine(t)
	var large []Request
	for copies := 0; copies < 4; copies++ {
		for n2 := uint(0); n2 < 8; n2++ {
			for edge := uint(0); edge < 8; edge++ {
				large = append(large, Request{Mode: ModeCycles, Problem: enumerate.FromMasks(2, n2, edge)})
			}
		}
	}
	large = append(large, Request{Mode: "no-such-mode", Problem: problems.Trivial(2)})
	b := e.NewBatch()
	defer b.Release()
	ctx := context.Background()
	b.Classify(ctx, large)
	if st := b.Stats(); st.Unique < 2 || st.Deduped == 0 {
		t.Fatalf("large batch did not fill the unique set: %+v", st)
	}
	items := b.Classify(ctx, []Request{{Mode: ModeCycles, Problem: problems.Coloring(3, 2)}})
	if len(items) != 1 || items[0].Err != nil {
		t.Fatalf("batch of one: %+v", items)
	}

	sc := b.sc
	tail := func(name string, n, capacity int, zero func(i int) bool) {
		t.Helper()
		for i := 1; i < capacity; i++ {
			if !zero(i) {
				t.Errorf("%s[%d] (len %d) still holds the previous pass's value", name, i, n)
				return
			}
		}
	}
	reqs, ds, errs, vals1 := sc.reqs[:cap(sc.reqs)], sc.ds[:cap(sc.ds)], sc.errs[:cap(sc.errs)], sc.vals1[:cap(sc.vals1)]
	resps, bitems := sc.resps[:cap(sc.resps)], sc.items[:cap(sc.items)]
	tail("reqs", len(sc.reqs), len(reqs), func(i int) bool { return reqs[i] == Request{} })
	tail("ds", len(sc.ds), len(ds), func(i int) bool { return ds[i] == nil })
	tail("errs", len(sc.errs), len(errs), func(i int) bool { return errs[i] == nil })
	tail("vals1", len(sc.vals1), len(vals1), func(i int) bool { return vals1[i] == nil })
	tail("resps", len(sc.resps), len(resps), func(i int) bool { return resps[i] == Response{} })
	tail("items", len(sc.items), len(bitems), func(i int) bool { return bitems[i] == BatchItem{} })
	uvals, uerr, uverd := sc.uniqVals[:cap(sc.uniqVals)], sc.uniqErr[:cap(sc.uniqErr)], sc.uniqVerd[:cap(sc.uniqVerd)]
	calls, mvals := sc.calls[:cap(sc.calls)], sc.missVals[:cap(sc.missVals)]
	tail("uniqVals", len(sc.uniqVals), len(uvals), func(i int) bool { return uvals[i] == nil })
	tail("uniqErr", len(sc.uniqErr), len(uerr), func(i int) bool { return uerr[i] == nil })
	tail("uniqVerd", len(sc.uniqVerd), len(uverd), func(i int) bool { return uverd[i] == nil })
	tail("calls", len(sc.calls), len(calls), func(i int) bool { return calls[i] == nil })
	tail("missVals", len(sc.missVals), len(mvals), func(i int) bool { return mvals[i] == nil })
	if len(sc.ident) != 0 {
		t.Errorf("identity prefilter still holds %d entries", len(sc.ident))
	}
}

// slowDecider is a test decider with observable compute counts and a
// tunable compute delay, for the singleflight race test.
type slowDecider struct {
	computes atomic.Int64
	delay    time.Duration
}

type slowPayload struct {
	Key int `json:"key"`
}

func (d *slowDecider) Name() string                   { return "slow" }
func (d *slowDecider) Normalize(req *Request) error   { return nil }
func (d *slowDecider) MemoDomain(req *Request) string { return "test/slow" }
func (d *slowDecider) Fingerprint(req *Request) (uint64, bool, error) {
	return uint64(req.MaxLevels), true, nil
}
func (d *slowDecider) Compute(ctx context.Context, req *Request) (any, error) {
	d.computes.Add(1)
	time.Sleep(d.delay)
	return &slowPayload{Key: req.MaxLevels}, nil
}
func (d *slowDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	p, ok := payload.(*slowPayload)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return &decide.Verdict{Class: decide.Constant, Detail: p}, nil
}

// TestBatchConcurrentSingleflight: concurrent overlapping batches share
// computations through the engine singleflight — each distinct key
// computes exactly once across all batches (run under -race in CI).
func TestBatchConcurrentSingleflight(t *testing.T) {
	d := &slowDecider{delay: 20 * time.Millisecond}
	reg := decide.NewRegistry()
	reg.MustRegister(d)
	e := New(Config{Workers: 8, Registry: reg, DisableObs: true})
	defer e.Close()

	// Three batches over overlapping key ranges, with intra-batch
	// duplicates. Union of keys: 1..12.
	ranges := [][2]int{{1, 8}, {5, 12}, {3, 10}}
	var wg sync.WaitGroup
	results := make([][]BatchItem, len(ranges))
	for bi, rng := range ranges {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reqs []Request
			for k := rng[0]; k <= rng[1]; k++ {
				reqs = append(reqs, Request{Mode: "slow", MaxLevels: k})
				reqs = append(reqs, Request{Mode: "slow", MaxLevels: k}) // duplicate
			}
			results[bi] = e.ClassifyBatch(reqs)
		}()
	}
	wg.Wait()
	for bi, items := range results {
		for i, item := range items {
			if item.Err != nil {
				t.Fatalf("batch %d item %d: %v", bi, i, item.Err)
			}
			wantKey := ranges[bi][0] + i/2
			if got := item.Response.Payload.(*slowPayload).Key; got != wantKey {
				t.Fatalf("batch %d item %d: key %d, want %d", bi, i, got, wantKey)
			}
		}
	}
	if got := d.computes.Load(); got != 12 {
		t.Fatalf("computed %d times, want 12 (one per distinct key across all batches)", got)
	}
}

// TestBatchHTTPLimitAndValidation covers the batch-size limit (413 +
// structured error), a batch exactly at the limit, the empty batch, and
// explicit empty items.
func TestBatchHTTPLimitAndValidation(t *testing.T) {
	e := New(Config{Workers: 2, MaxBatch: 4})
	srv := newServerFor(t, e)

	item := classifyBody(t, "cycles", problems.Coloring(3, 2))

	// Oversized: 5 > 4 → 413 with the structured error body.
	over := map[string]any{"requests": []any{item, item, item, item, item}}
	resp, body := postJSON(t, srv.URL+"/v1/classify/batch", over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, body %s", resp.StatusCode, body)
	}
	var lim wireBatchLimitError
	if err := json.Unmarshal(body, &lim); err != nil {
		t.Fatal(err)
	}
	if lim.MaxBatch != 4 || lim.Items != 5 || lim.Error == "" {
		t.Fatalf("413 body: %+v", lim)
	}

	// Exactly at the limit: served.
	atLimit := map[string]any{"requests": []any{item, item, item, item}}
	resp, body = postJSON(t, srv.URL+"/v1/classify/batch", atLimit)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-limit batch: status %d, body %s", resp.StatusCode, body)
	}
	var out wireBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("at-limit body: %v\n%s", err, body)
	}
	if len(out.Results) != 4 {
		t.Fatalf("at-limit results: %d", len(out.Results))
	}
	// All four raw payloads are identical bytes: the handler shares one
	// decoded problem and the engine dedups them to one computation.
	if out.Deduped != 3 {
		t.Fatalf("deduped = %d, want 3", out.Deduped)
	}

	// Empty batch: 400.
	resp, body = postJSON(t, srv.URL+"/v1/classify/batch", map[string]any{"requests": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, body %s", resp.StatusCode, body)
	}

	// An explicitly empty item errors in place; its neighbors serve.
	mixed := map[string]any{"requests": []any{item, map[string]any{"mode": "cycles"}}}
	resp, body = postJSON(t, srv.URL+"/v1/classify/batch", mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: status %d", resp.StatusCode)
	}
	out = wireBatchResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Error != "" || out.Results[0].Class == "" {
		t.Fatalf("valid item failed: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Fatalf("empty item did not error: %+v", out.Results[1])
	}
}

// newServerFor wraps an engine in a test server with cleanup.
func newServerFor(t *testing.T, e *Engine) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv
}

// TestBatchHTTPBitIdenticalToSingle posts every request individually
// and as one batch against engines in the same state, and requires the
// wire fields to match per position.
func TestBatchHTTPBitIdenticalToSingle(t *testing.T) {
	singleSrv := newTestServer(t)
	batchSrv := newTestServer(t)

	bodies := []map[string]any{
		classifyBody(t, "cycles", problems.Coloring(3, 2)),
		classifyBody(t, "cycles", relabeled3Coloring()),
		classifyBody(t, "trees", problems.Trivial(2)),
		classifyBody(t, "paths-inputs", problems.Coloring(3, 2)),
		{"mode": "rooted", "rooted": rootedTwoColoring()},
		classifyBody(t, "grid", enumerate.FromMasks(1, 1, 1)),
	}
	// Warm both engines so serving flags agree (everything a memo hit),
	// then compare the second pass.
	for pass := 0; pass < 2; pass++ {
		singles := make([]*wireResponse, len(bodies))
		singleRaws := make([][]byte, len(bodies))
		for i, body := range bodies {
			resp, raw := postJSON(t, singleSrv.URL+"/v1/classify", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single %d: status %d, body %s", i, resp.StatusCode, raw)
			}
			singleRaws[i] = raw
			singles[i] = &wireResponse{}
			if err := json.Unmarshal(raw, singles[i]); err != nil {
				t.Fatal(err)
			}
		}
		reqList := make([]any, len(bodies))
		for i := range bodies {
			reqList[i] = bodies[i]
		}
		resp, raw := postJSON(t, batchSrv.URL+"/v1/classify/batch", map[string]any{"requests": reqList})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d, body %s", resp.StatusCode, raw)
		}
		var out wireBatchResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batch body: %v\n%s", err, raw)
		}
		if len(out.Results) != len(bodies) {
			t.Fatalf("batch results: %d, want %d", len(out.Results), len(bodies))
		}
		if pass == 0 {
			continue
		}
		// One encoder: each single reply is the batch item's bytes.
		var rawOut struct{ Results []json.RawMessage }
		if err := json.Unmarshal(raw, &rawOut); err != nil {
			t.Fatal(err)
		}
		for i, item := range rawOut.Results {
			if single := bytes.TrimSuffix(singleRaws[i], []byte("\n")); !bytes.Equal(single, item) {
				t.Errorf("item %d bytes diverge:\n batch:  %s\n single: %s", i, item, single)
			}
		}
		for i, got := range out.Results {
			want := singles[i]
			if got.Problem != want.Problem || got.Mode != want.Mode ||
				got.Fingerprint != want.Fingerprint || got.Class != want.Class ||
				got.CacheHit != want.CacheHit || got.Coalesced != want.Coalesced ||
				got.Sealed != want.Sealed || got.Error != want.Error {
				t.Errorf("item %d wire fields diverge:\n batch: %+v\n single: %+v", i, got, want)
			}
			var gd, wd any
			if err := json.Unmarshal(got.Detail, &gd); err != nil {
				t.Fatalf("item %d batch detail: %v", i, err)
			}
			if err := json.Unmarshal(want.Detail, &wd); err != nil {
				t.Fatalf("item %d single detail: %v", i, err)
			}
			if !reflect.DeepEqual(gd, wd) {
				t.Errorf("item %d details diverge: %s vs %s", i, got.Detail, want.Detail)
			}
		}
	}
}

// TestBatchStatsSurface: memo batch counters flow through to /statsz.
func TestBatchStatsSurface(t *testing.T) {
	e := newTestEngine(t)
	reqs := batchRequests()
	e.ClassifyBatch(reqs) // cold: batch-get all misses
	e.ClassifyBatch(reqs) // warm: batch-get hits
	st := e.Stats()
	if st.BatchLimit != DefaultMaxBatch {
		t.Fatalf("batch limit: %d", st.BatchLimit)
	}
	if st.Cache.BatchCalls < 2 || st.Cache.BatchKeys == 0 {
		t.Fatalf("memo batch counters not surfaced: %+v", st.Cache)
	}
	if st.Cache.BatchHits == 0 {
		t.Fatalf("warm batch recorded no batch hits: %+v", st.Cache)
	}
}
