// The traced run: per-layer numbers, timed from outside around each
// layer's exported call on the workload's own inputs. Spans stay in
// memory and are written out when the run ends.
//
// A traced request replays one request three times, against three equal
// states, so that each call sees the tier the served request sees:
//
//   - the layer walk: the calls Engine.ClassifyCtx makes, one by one
//     (decode, fingerprint, sealed probe, memo probe, compute and memo
//     write on a miss, wrap), against a memo cache of its own;
//   - the twin engine's ClassifyCtx (or ClassifyBatchCtx for a batch);
//   - ServeHTTP on the serving engine.
//
// The walk and the twin take turns going first, so neither always finds
// the other's data in the processor caches. Every span duration is net
// of the tracer's own cost, the median of an empty span.
//
// Each span records the layer that makes the call in production as its
// parent, so a layer's self time is its duration minus its children's:
// HTTP self time is ServeHTTP minus decoding and the engine call, engine
// self time is ClassifyCtx minus the layer calls it makes. Layers a
// workload's serving path never reaches (compute on a hit workload, the
// batch pipeline on a single-request workload) and every allocation
// count are measured by a probe pass afterwards, one layer at a time.

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/decide"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/service"
)

// Span names; the prefix is the module that owns the layer.
const (
	spRequest = iota
	spHTTP
	spDecode
	spBatch
	spGetBatch
	spEngine
	spFingerprint
	spSealedGet
	spMemoGet
	spCycles
	spTrees
	spPaths
	spMemoPut
	spWrap
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "service.http", "lcl.decode", "service.batch", "store.sealed_getbatch",
	"service.engine", "canon.fingerprint", "store.sealed_get", "memo.get",
	"classify.cycles", "re.trees", "classify.paths", "memo.put", "decide.wrap",
}

var computeSpan = map[string]int{
	service.ModeCycles:      spCycles,
	service.ModeTrees:       spTrees,
	service.ModePathsInputs: spPaths,
}

type span struct {
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32 // -1 for a root
	req        int32 // request id
	n          int32 // items (batch, http) or keys (getbatch) covered
	name       uint8
}

// tracer keeps spans in preallocated memory.
type tracer struct {
	epoch time.Time
	spans []span
	zero  float64 // median duration of an empty span, ns
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
	empty := make([]float64, 0, 10000)
	for range cap(empty) {
		i := t.begin(spRequest, -1, 0)
		t.stop(i)
		empty = append(empty, float64(t.spans[i].end-t.spans[i].start))
		t.spans = t.spans[:0]
	}
	t.zero = median(empty)
	return t
}

func (t *tracer) open(name int, parent, req int32) int32 {
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, req: req, n: 1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) start(i int32) { t.spans[i].start = int64(time.Since(t.epoch)) }
func (t *tracer) stop(i int32)  { t.spans[i].end = int64(time.Since(t.epoch)) }

func (t *tracer) begin(name int, parent, req int32) int32 {
	i := t.open(name, parent, req)
	t.start(i)
	return i
}

// full reports whether fewer than room spans are left.
func (t *tracer) full(room int) bool { return len(t.spans)+room > cap(t.spans) }

// layerStats is one row of the self-time table.
type layerStats struct {
	calls      int
	total      float64   // summed self time, ns
	self, dur  []float64 // per call, ns
	perItemDur []float64 // duration / n, ns
	perItemSlf []float64 // self / n, ns
}

// selfTimes folds spans into per-name rows. A span's self time is its
// duration minus its children's; a request root's is its duration minus
// every span of the request, i.e. the tracer's and the client loop's own time.
func (t *tracer) selfTimes() [numSpanNames]*layerStats {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		d := float64(s.end-s.start) - t.zero
		child[s.parent] += d
		if t.spans[s.parent].parent >= 0 {
			// Charge the request root with every descendant.
			root := s.parent
			for t.spans[root].parent >= 0 {
				root = t.spans[root].parent
			}
			child[root] += d
		}
	}
	var rows [numSpanNames]*layerStats
	for i := range rows {
		rows[i] = &layerStats{}
	}
	for i, s := range t.spans {
		d := float64(s.end-s.start) - t.zero
		self := d - child[i]
		r := rows[s.name]
		r.calls++
		r.total += self
		r.self = append(r.self, self)
		r.dur = append(r.dur, d)
		r.perItemDur = append(r.perItemDur, d/float64(s.n))
		r.perItemSlf = append(r.perItemSlf, self/float64(s.n))
	}
	return rows
}

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit; trees.compute_ms.<problem> adds one per battery problem.
var layerMetrics = []struct{ name, unit string }{
	{"http.self_us", "us"}, {"http.resp_bytes", "bytes"}, {"http.allocs", "count"},
	{"batch.us_per_item", "us"}, {"batch.unique_ratio", "ratio"},
	{"batch.allocs_per_item", "count"}, {"batch.http_self_us_per_item", "us"},
	{"engine.self_us", "us"},
	{"decode.us", "us"}, {"decode.allocs", "count"},
	{"fingerprint.us", "us"}, {"fingerprint.allocs", "count"},
	{"sealed.get_ns", "ns"}, {"sealed.getbatch_ns_per_key", "ns"}, {"sealed.hit_ratio", "ratio"},
	{"memo.get_ns", "ns"}, {"memo.put_ns", "ns"}, {"memo.hit_ratio", "ratio"},
	{"memo.evictions_per_item", "count"},
	{"cycles.compute_us", "us"}, {"cycles.compute_allocs", "count"},
	{"trees.compute_ms", "ms"}, {"trees.compute_allocs", "count"},
	{"wrap.ns", "ns"}, {"wrap.allocs", "count"},
	{"gc.count_per_kitem", "count"}, {"gc.pause_ms", "ms"},
	{"trace.overhead", "ratio"}, {"loadgen.allocs_per_item", "count"},
}

// tracedRun holds the three engines of a traced request and its tracer.
type tracedRun struct {
	w    *workload
	a    *server     // the serving engine, behind ServeHTTP
	b    *server     // the twin, called directly
	put  *memo.Cache // the layer walk's memo, in the twin's state
	c    *client     // the HTTP client on a
	t    *tracer     // traced phase
	p    *tracer     // probe pass
	ctx  context.Context
	resp []int // response bytes per traced request
}

// newTwin starts the twin engine over the serving engine's sealed table
// and brings it, and the walk's memo, to the serving engine's state:
// every item once, then the requests client 0 made last before its
// cursor. Those are at least as many distinct keys as the memo holds, so
// the memo holds the same keys as the serving engine's.
func newTwin(w *workload, a *server) (*server, *memo.Cache, error) {
	b := &server{engine: newEngine(w, a.sealed)}
	put := memo.New(w.memoShards, w.memoCap)
	history := w.inReplayOrder()
	seq := w.seq[0]
	for n := len(history); n > 0; n-- {
		history = append(history, w.reqs[seq[(w.cursor[0]-n+len(seq)*n)%len(seq)]])
	}
	for _, r := range history {
		for _, i := range r.items {
			it := w.items[i]
			p, err := decodeProblem(it.raw)
			if err != nil {
				return nil, nil, err
			}
			resp, err := b.engine.Classify(it.request(p))
			if err != nil {
				return nil, nil, fmt.Errorf("prime twin %s/%s: %w", it.mode, it.name, err)
			}
			if !resp.Sealed {
				put.Put(it.key, resp.Payload)
			}
		}
	}
	return b, put, nil
}

func decodeProblem(raw []byte) (*lcl.Problem, error) {
	p := &lcl.Problem{}
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, fmt.Errorf("decode problem: %w", err)
	}
	return p, nil
}

// walk makes the calls Engine.ClassifyCtx makes for one item, each in
// its own span under parent, and returns the class it arrives at.
func (tr *tracedRun) walk(it *item, p *lcl.Problem, parent, id int32) (string, error) {
	t := tr.t
	d, _ := registry.Get(it.mode)
	req := it.request(p)
	if err := d.Normalize(&req); err != nil {
		return "", err
	}
	s := t.begin(spFingerprint, parent, id)
	fp, _, err := d.Fingerprint(&req)
	t.stop(s)
	if err != nil {
		return "", err
	}
	key := memo.Key(d.MemoDomain(&req), fp)
	s = t.begin(spSealedGet, parent, id)
	v, ok := tr.a.sealed.Get(key)
	t.stop(s)
	if !ok {
		s = t.begin(spMemoGet, parent, id)
		v, ok = tr.put.Get(key)
		t.stop(s)
	}
	if !ok {
		s = t.begin(computeSpan[it.mode], parent, id)
		v, err = d.Compute(tr.ctx, &req)
		t.stop(s)
		if err != nil {
			return "", err
		}
		s = t.begin(spMemoPut, parent, id)
		tr.put.Put(key, v)
		t.stop(s)
	}
	s = t.begin(spWrap, parent, id)
	verdict, err := d.WrapPayload(v)
	t.stop(s)
	if err != nil {
		return "", err
	}
	return verdict.Class.String(), nil
}

// request traces one request: layer walk, twin engine, then ServeHTTP.
func (tr *tracedRun) request(id int32, r *request) error {
	t, w := tr.t, tr.w
	root := t.begin(spRequest, -1, id)
	h := t.open(spHTTP, root, id)
	t.spans[h].n = int32(len(r.items))
	// Decode each distinct problem once, as the handler does.
	problems := map[string]*lcl.Problem{}
	for _, i := range r.items {
		raw := string(w.items[i].raw)
		if problems[raw] != nil {
			continue
		}
		dec := t.begin(spDecode, h, id)
		p, err := decodeProblem(w.items[i].raw)
		t.stop(dec)
		if err != nil {
			return err
		}
		problems[raw] = p
	}
	// The twin gets problems of its own: a trees compute caches per
	// problem pointer, and the calls must not share that.
	reqs, keys, err := tr.twinBatch(r)
	if err != nil {
		return err
	}
	enginePa := h
	if len(r.items) > 1 {
		bs := t.open(spBatch, h, id)
		t.spans[bs].n = int32(len(r.items))
		t.start(bs)
		items := tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs)
		t.stop(bs)
		vals := make([]any, len(keys))
		gb := t.begin(spGetBatch, bs, id)
		tr.a.sealed.GetBatch(keys, vals, nil)
		t.stop(gb)
		t.spans[gb].n = int32(len(keys))
		for j, i := range r.items {
			if items[j].Err != nil || items[j].Response.Class.String() != w.items[i].expect {
				return fmt.Errorf("twin batch item %d (%s): %v", j, w.items[i].name, items[j].Err)
			}
		}
		// The per-item engine path hangs off the request, not the batch.
		enginePa = root
	}
	for j, i := range r.items {
		it := w.items[i]
		e := t.open(spEngine, enginePa, id)
		var class string
		var walkErr error
		walkFirst := (int(id)+j)%2 == 0
		if walkFirst {
			class, walkErr = tr.walk(it, problems[string(it.raw)], e, id)
		}
		t.start(e)
		resp, err := tr.b.engine.ClassifyCtx(tr.ctx, reqs[j])
		t.stop(e)
		if err != nil {
			return fmt.Errorf("twin %s/%s: %w", it.mode, it.name, err)
		}
		if !walkFirst {
			class, walkErr = tr.walk(it, problems[string(it.raw)], e, id)
		}
		if walkErr != nil {
			return fmt.Errorf("layer walk %s/%s: %w", it.mode, it.name, walkErr)
		}
		// The walk must arrive where the engine does, and both where the
		// oracle does, or the trace measures other work.
		if got := resp.Class.String(); class != got || got != it.expect {
			return fmt.Errorf("%s/%s: layer walk says %q, ClassifyCtx %q, oracle %q", it.mode, it.name, class, got, it.expect)
		}
	}
	t.start(h)
	tr.c.serve(r.body)
	t.stop(h)
	t.stop(root)
	tr.resp = append(tr.resp, len(tr.c.w.body))
	if !tr.c.check(w, r) {
		return verify(w, r, tr.c.w.status, tr.c.w.body)
	}
	return nil
}

// twinBatch decodes a request for the twin (one problem per distinct raw
// payload, as the handler shares them) and lists its sorted distinct
// memo keys, the sealed probe order of the batch pipeline.
func (tr *tracedRun) twinBatch(r *request) ([]service.Request, []uint64, error) {
	w := tr.w
	problems := map[string]*lcl.Problem{}
	reqs := make([]service.Request, len(r.items))
	var keys []uint64
	for j, i := range r.items {
		it := w.items[i]
		p := problems[string(it.raw)]
		if p == nil {
			var err error
			if p, err = decodeProblem(it.raw); err != nil {
				return nil, nil, err
			}
			problems[string(it.raw)] = p
		}
		reqs[j] = it.request(p)
		keys = append(keys, it.key)
	}
	slices.Sort(keys)
	return reqs, slices.Compact(keys), nil
}

// traceMetrics is the traced run: an untraced single-client phase, a
// traced single-client phase, and the probe pass. One client keeps the
// process-wide allocation counters attributable to one call at a time.
func traceMetrics(w *workload, a *server, seconds int, outDir string) (map[string]float64, int, int, error) {
	third := time.Duration(seconds) * time.Second / 3
	s0 := a.engine.Stats()
	pu := run(w, a.handler, 1, third, 0)
	delta := diffStats(s0, a.engine.Stats(), pu.items)
	if err := w.check(delta); err != nil {
		return nil, 0, 0, err
	}
	m := map[string]float64{}
	m["sealed.hit_ratio"] = ratio(delta.sealedHits, delta.sealedHits+delta.sealedMisses)
	m["memo.hit_ratio"] = ratio(delta.hits, delta.hits+delta.misses)
	m["memo.evictions_per_item"] = float64(delta.evicted) / float64(pu.items)
	m["gc.count_per_kitem"] = float64(pu.gcs) / (float64(pu.items) / 1000)
	if pu.gcs > 0 {
		m["gc.pause_ms"] = pu.gcPause.Seconds() * 1000 / float64(pu.gcs)
	} else {
		m["gc.pause_ms"] = 0
	}

	b, put, err := newTwin(w, a)
	if err != nil {
		return nil, 0, 0, err
	}
	defer b.engine.Close()
	tr := &tracedRun{
		w: w, a: a, b: b, put: put, ctx: context.Background(),
		c: newClient(a.handler, w.path, 0),
		t: newTracer(1 << 18), p: newTracer(1 << 14),
	}
	room := 8 + 8*batchSize
	seq := w.seq[0]
	items, n := 0, 0
	start := time.Now()
	for ; time.Since(start) < third && !tr.t.full(room); n++ {
		r := w.reqs[seq[(w.cursor[0]+n)%len(seq)]]
		if err := tr.request(int32(n), r); err != nil {
			return nil, 0, 0, err
		}
		items += len(r.items)
	}
	traced := float64(items) / time.Since(start).Seconds()
	w.cursor[0] = (w.cursor[0] + n) % len(seq)
	m["trace.overhead"] = pu.itemsPerSec() / traced

	rows := tr.t.selfTimes()
	if err := tr.probe(m); err != nil {
		return nil, 0, 0, err
	}
	probeRows := tr.p.selfTimes()
	// A layer the serving path reached is timed on it; otherwise the
	// probe's timing stands in.
	pick := func(name int) *layerStats {
		if rows[name].calls > 0 {
			return rows[name]
		}
		return probeRows[name]
	}
	m["http.self_us"] = med(rows[spHTTP].self) / 1e3
	if rows[spBatch].calls > 0 {
		m["batch.us_per_item"] = med(rows[spBatch].perItemDur) / 1e3
		m["batch.http_self_us_per_item"] = med(rows[spHTTP].perItemSlf) / 1e3
	}
	m["http.resp_bytes"] = meanInt(tr.resp)
	m["engine.self_us"] = med(rows[spEngine].self) / 1e3
	m["decode.us"] = med(rows[spDecode].dur) / 1e3
	m["fingerprint.us"] = med(rows[spFingerprint].dur) / 1e3
	m["sealed.get_ns"] = med(rows[spSealedGet].dur)
	m["sealed.getbatch_ns_per_key"] = med(pick(spGetBatch).perItemDur)
	m["memo.get_ns"] = med(rows[spMemoGet].dur)
	m["memo.put_ns"] = med(pick(spMemoPut).dur)
	m["cycles.compute_us"] = med(pick(spCycles).dur) / 1e3
	m["trees.compute_ms"] = med(pick(spTrees).dur) / 1e6
	m["wrap.ns"] = med(rows[spWrap].dur)

	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			return nil, 0, 0, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
	}
	if err := writeTrace(outDir, tr, rows, probeRows, m); err != nil {
		return nil, 0, 0, err
	}
	return m, pu.requests + n, pu.failed, nil
}

// probe measures every layer once more, one at a time and on one
// goroutine, for allocation counts (runtime.ReadMemStats around a run of
// calls) and for the timings of layers the serving path never reached.
func (tr *tracedRun) probe(m map[string]float64) error {
	w, t := tr.w, tr.p
	type sample struct {
		it      *item
		d       decide.Decider
		req     service.Request
		payload any
	}
	var ss []sample
	for _, r := range w.inReplayOrder() {
		for _, i := range r.items {
			if len(ss) == 64 {
				break
			}
			it := w.items[i]
			p, err := decodeProblem(it.raw)
			if err != nil {
				return err
			}
			d, _ := registry.Get(it.mode)
			req := it.request(p)
			if err := d.Normalize(&req); err != nil {
				return err
			}
			v, ok := tr.a.sealed.Get(it.key)
			if !ok {
				if v, err = d.Compute(tr.ctx, &req); err != nil {
					return err
				}
			}
			ss = append(ss, sample{it, d, req, v})
		}
	}
	const reps = 4
	calls := float64(reps * len(ss))
	m["decode.allocs"] = allocs(func() {
		for range reps {
			for _, s := range ss {
				_, _ = decodeProblem(s.it.raw)
			}
		}
	}) / calls
	m["fingerprint.allocs"] = allocs(func() {
		for range reps {
			for _, s := range ss {
				_, _, _ = s.d.Fingerprint(&s.req)
			}
		}
	}) / calls
	m["wrap.allocs"] = allocs(func() {
		for range reps {
			for _, s := range ss {
				_, _ = s.d.WrapPayload(s.payload)
			}
		}
	}) / calls
	id := int32(0)
	timed := func(name int, fn func()) {
		i := t.begin(name, -1, id)
		fn()
		t.stop(i)
		id++
	}
	for range reps {
		for _, s := range ss {
			timed(spMemoPut, func() { tr.put.Put(s.it.key, s.payload) })
		}
	}
	keys := make([]uint64, len(ss))
	for i, s := range ss {
		keys[i] = s.it.key
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	vals := make([]any, len(keys))
	for range reps {
		i := t.begin(spGetBatch, -1, id)
		tr.a.sealed.GetBatch(keys, vals, nil)
		t.stop(i)
		t.spans[i].n = int32(len(keys))
		id++
	}

	// The cycles decider on the sample's cycle items, or on every sample
	// problem it accepts when the workload has none.
	cyc, _ := registry.Get(service.ModeCycles)
	var cycles, others []service.Request
	for _, s := range ss {
		req := s.req
		req.Mode = service.ModeCycles
		if s.it.mode == service.ModeCycles {
			cycles = append(cycles, req)
		} else if _, err := cyc.Compute(tr.ctx, &req); err == nil {
			others = append(others, req)
		}
	}
	if len(cycles) == 0 {
		cycles = others
	}
	if len(cycles) > 0 {
		m["cycles.compute_allocs"] = allocs(func() {
			for range reps {
				for i := range cycles {
					timed(spCycles, func() { _, _ = cyc.Compute(tr.ctx, &cycles[i]) })
				}
			}
		}) / float64(reps*len(cycles))
	}

	// The trees decider on the battery, problem by problem (one at a
	// time: internal/re is not safe for concurrent computes).
	trees, _ := registry.Get(service.ModeTrees)
	bat := battery()
	const treeReps = 3
	perProblem := make([][]float64, len(bat))
	m["trees.compute_allocs"] = allocs(func() {
		for range treeReps {
			for j, p := range bat {
				req := service.Request{Mode: service.ModeTrees, Problem: p, MaxLevels: treesLevels}
				timed(spTrees, func() { _, _ = trees.Compute(tr.ctx, &req) })
				s := t.spans[len(t.spans)-1]
				perProblem[j] = append(perProblem[j], float64(s.end-s.start))
			}
		}
	}) / float64(treeReps*len(bat))
	for j, p := range bat {
		m["trees.compute_ms."+p.Name] = med(perProblem[j]) / 1e6
	}

	// HTTP and batch allocations, on requests both engines have just
	// served, so the engine side is a hit on each.
	var httpAllocs, batchAllocs, batchItems, batchHTTP []float64
	for _, r := range w.inReplayOrder() {
		if len(httpAllocs) == 32 {
			break
		}
		reqs, _, err := tr.twinBatch(r)
		if err != nil {
			return err
		}
		var dec float64
		for _, p := range distinctRaws(w, r) {
			dec += allocs(func() { _, _ = decodeProblem(p) })
		}
		if len(r.items) > 1 {
			tr.c.serve(r.body)
			tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs)
			ha := allocs(func() { tr.c.serve(r.body) })
			ba := allocs(func() { tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs) })
			httpAllocs = append(httpAllocs, ha-ba-dec)
			batchAllocs = append(batchAllocs, ba/float64(len(r.items)))
			continue
		}
		// A single request, and the same item as a batch of one.
		body1 := batchOfOne(w.items[r.items[0]])
		tr.c.serve(r.body)
		tr.b.engine.Classify(reqs[0])
		ha := allocs(func() { tr.c.serve(r.body) })
		ea := allocs(func() { _, _ = tr.b.engine.Classify(reqs[0]) })
		httpAllocs = append(httpAllocs, ha-ea-dec)
		c1 := newClient(tr.a.handler, "/v1/classify/batch", 0)
		c1.serve(body1)
		tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs)
		ba := allocs(func() { tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs) })
		batchAllocs = append(batchAllocs, ba)
		for range reps {
			t0 := time.Now()
			c1.serve(body1)
			t1 := time.Now()
			tr.b.engine.ClassifyBatchCtx(tr.ctx, reqs)
			t2 := time.Now()
			batchItems = append(batchItems, float64(t2.Sub(t1)))
			batchHTTP = append(batchHTTP, float64(t1.Sub(t0)-t2.Sub(t1)))
		}
	}
	m["http.allocs"] = med(httpAllocs)
	m["batch.allocs_per_item"] = med(batchAllocs)
	if len(batchItems) > 0 {
		m["batch.us_per_item"] = med(batchItems) / 1e3
		m["batch.http_self_us_per_item"] = med(batchHTTP) / 1e3
	}
	var dedup, total int
	for _, r := range w.reqs {
		dedup += r.dedup
		total += len(r.items)
	}
	m["batch.unique_ratio"] = 1 - float64(dedup)/float64(total)
	m["loadgen.allocs_per_item"] = loadgenAllocs()
	return nil
}

func distinctRaws(w *workload, r *request) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, i := range r.items {
		raw := w.items[i].raw
		if !seen[string(raw)] {
			seen[string(raw)] = true
			out = append(out, raw)
		}
	}
	return out
}

func batchOfOne(it *item) []byte {
	return append(append([]byte(`{"requests":[`), it.body...), "]}"...)
}

// allocs counts the heap allocations fn makes.
func allocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(slices.Clone(xs))
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// writeTrace writes the spans (CSV), the self-time tables and the
// per-layer metrics of a traced run into dir.
func writeTrace(dir string, tr *tracedRun, rows, probeRows [numSpanNames]*layerStats, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.csv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "phase,span,parent,request,name,start_ns,end_ns,n")
	for phase, t := range map[string]*tracer{"traced": tr.t, "probe": tr.p} {
		for i, s := range t.spans {
			fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%d,%d,%d\n", phase, i, s.parent, s.req, spanNames[s.name], s.start, s.end, s.n)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	for _, part := range []struct {
		title string
		rows  [numSpanNames]*layerStats
	}{{"traced phase (" + tr.w.name + ")", rows}, {"probe pass", probeRows}} {
		var sum float64
		for _, r := range part.rows {
			sum += r.total
		}
		fmt.Fprintf(&b, "%s\n%-22s %9s %14s %7s %14s %14s\n", part.title, "layer", "calls", "self_total_ms", "share", "self_med_us", "dur_med_us")
		for i, r := range part.rows {
			if r.calls == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-22s %9d %14.3f %6.1f%% %14.3f %14.3f\n", spanNames[i], r.calls,
				r.total/1e6, 100*r.total/sum, med(r.self)/1e3, med(r.dur)/1e3)
		}
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString("per-layer metrics\n")
	for _, k := range names {
		fmt.Fprintf(&b, "%-40s %g\n", k, m[k])
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644)
}
