package service

import (
	"context"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/decide"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/problems"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Workers: 4, CacheShards: 4, CacheCapacity: 1024})
	t.Cleanup(e.Close)
	return e
}

// relabeled3Coloring is 3-coloring with the color alphabet rotated — a
// distinct *lcl.Problem value that is label-isomorphic to
// problems.Coloring(3, 2).
func relabeled3Coloring() *lcl.Problem {
	b := lcl.NewBuilder("3-coloring-rotated", nil, []string{"3", "1", "2"})
	for _, c := range []string{"1", "2", "3"} {
		b.Node(c)
		b.Node(c, c)
		for _, d := range []string{"1", "2", "3"} {
			if c != d {
				b.Edge(c, d)
			}
		}
	}
	return b.MustBuild()
}

// rootedTwoColoring is the rooted request every test that needs one
// uses: proper 2-coloring of the binary tree.
func rootedTwoColoring() *decide.RootedProblem {
	return &decide.RootedProblem{
		Name:   "rooted-2col",
		Delta:  2,
		Labels: []string{"a", "b"},
		Configs: []decide.RootedConfig{
			{Parent: "a", Children: []string{"b", "b"}},
			{Parent: "b", Children: []string{"a", "a"}},
		},
	}
}

func TestClassifyCycles(t *testing.T) {
	e := newTestEngine(t)
	resp, err := e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cycles() == nil || resp.Cycles().Class != classify.LogStar {
		t.Fatalf("3-coloring on cycles: %+v", resp.Cycles())
	}
	if resp.Class != decide.LogStar {
		t.Fatalf("lattice class: %v", resp.Class)
	}
	if resp.CacheHit || resp.Coalesced {
		t.Fatalf("first request served from cache: %+v", resp)
	}
}

// TestCacheHitAcrossIsomorphs: a relabeled problem hits the cache entry
// of its isomorph — the point of canonical keys.
func TestCacheHitAcrossIsomorphs(t *testing.T) {
	e := newTestEngine(t)
	first, err := e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Classify(Request{Problem: relabeled3Coloring(), Mode: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("isomorphic problem missed the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints differ across isomorphs: %x vs %x", first.Fingerprint, second.Fingerprint)
	}
	if second.Cycles().Class != first.Cycles().Class {
		t.Fatal("classes differ across isomorphs")
	}
	if st := e.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("stats recorded no cache hit: %+v", st)
	}
}

func TestClassifyTrees(t *testing.T) {
	e := newTestEngine(t)
	resp, err := e.Classify(Request{Problem: problems.Trivial(2), Mode: "trees"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trees() == nil || !resp.Trees().Constant {
		t.Fatalf("trivial problem on trees: %+v", resp.Trees())
	}
	if resp.Class != decide.Constant {
		t.Fatalf("lattice class: %v", resp.Class)
	}
}

func TestClassifyPathsInputs(t *testing.T) {
	e := newTestEngine(t)
	resp, err := e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "paths-inputs"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Paths() == nil || !resp.Paths().SolvableAllInputs {
		t.Fatalf("3-coloring on paths: %+v", resp.Paths())
	}
}

func TestClassifySynthesize(t *testing.T) {
	e := newTestEngine(t)
	// 3-coloring needs symmetry breaking: no constant-round algorithm.
	resp, err := e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "synthesize", MaxRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Synth() == nil || resp.Synth().Found {
		t.Fatalf("3-coloring synthesized at radius <= 1: %+v", resp.Synth())
	}
	// The trivial problem synthesizes at radius 0.
	resp, err = e.Classify(Request{Problem: problems.Trivial(2), Mode: "synthesize"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Synth() == nil || !resp.Synth().Found || resp.Synth().Radius != 0 {
		t.Fatalf("trivial synthesis: %+v", resp.Synth())
	}
	if resp.Class != decide.Constant {
		t.Fatalf("lattice class: %v", resp.Class)
	}
}

func TestClassifyRooted(t *testing.T) {
	e := newTestEngine(t)
	resp, err := e.Classify(Request{Mode: "rooted", Rooted: rootedTwoColoring()})
	if err != nil {
		t.Fatal(err)
	}
	v := resp.Rooted()
	if v == nil || !v.SolvableEverywhere || v.ConstantAnon {
		t.Fatalf("rooted 2-coloring: %+v", v)
	}
	if resp.Class != decide.Unknown {
		t.Fatalf("lattice class: %v", resp.Class)
	}
	// Identical spec, second call: cache hit.
	resp, err = e.Classify(Request{Mode: "rooted", Rooted: rootedTwoColoring()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("identical rooted request missed the cache")
	}
	// Rooted requests without a spec are rejected.
	if _, err := e.Classify(Request{Mode: "rooted"}); err == nil {
		t.Fatal("rooted request without a spec accepted")
	}
}

func TestClassifyGrid(t *testing.T) {
	e := newTestEngine(t)
	resp, err := e.Classify(Request{Problem: problems.ConsistentOrientation(), Mode: "grid", Dims: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != decide.Constant || resp.Grid() == nil || !resp.Grid().Exact {
		t.Fatalf("consistent orientation on the 1-torus: %v %+v", resp.Class, resp.Grid())
	}
	// Different dims are different memo domains: no false sharing.
	resp2, err := e.Classify(Request{Problem: problems.ConsistentOrientation(), Mode: "grid", Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.CacheHit {
		t.Fatal("dims=2 request hit the dims=1 cache entry")
	}
	if resp2.Grid().Dims != 2 {
		t.Fatalf("dims: %+v", resp2.Grid())
	}
}

func TestClassifyErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "nonsense"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := e.Classify(Request{Mode: "cycles"}); err == nil {
		t.Fatal("nil problem accepted")
	}
	// Cycles rejects problems with inputs.
	withInputs := lcl.NewBuilder("inputful", []string{"x", "y"}, []string{"A"}).
		Node("A", "A").Edge("A", "A").Allow("x", "A").Allow("y", "A").MustBuild()
	if _, err := e.Classify(Request{Problem: withInputs, Mode: "cycles"}); err == nil {
		t.Fatal("cycles accepted an input-labeled problem")
	}
	if st := e.Stats(); st.Errors == 0 {
		t.Fatalf("no errors recorded: %+v", st)
	}
}

// TestUnknownModeCounter: rejected modes land in their own counter, not
// in any decider's bucket.
func TestUnknownModeCounter(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 3; i++ {
		if _, err := e.Classify(Request{Problem: problems.Trivial(2), Mode: "oracle"}); err == nil {
			t.Fatal("unknown mode accepted")
		}
	}
	st := e.Stats()
	if st.UnknownModeRejects != 3 {
		t.Fatalf("unknown-mode rejects: %d", st.UnknownModeRejects)
	}
	if st.Requests != 0 {
		t.Fatalf("unknown modes counted as requests: %+v", st)
	}
	for name, n := range st.ByDecider {
		if n != 0 {
			t.Fatalf("unknown mode polluted the %q bucket: %d", name, n)
		}
	}
	if len(st.Deciders) != len(DefaultRegistry().Names()) {
		t.Fatalf("deciders list: %v", st.Deciders)
	}
}

// TestBatch: positional results, mixed modes, and cache effectiveness
// for duplicate entries.
func TestBatch(t *testing.T) {
	e := newTestEngine(t)
	reqs := []Request{
		{Problem: problems.Coloring(3, 2), Mode: "cycles"},
		{Problem: problems.Trivial(2), Mode: "cycles"},
		{Problem: problems.Coloring(3, 2), Mode: "cycles"}, // duplicate of [0]
		{Problem: problems.Coloring(3, 2), Mode: "paths-inputs"},
	}
	items := e.ClassifyBatch(reqs)
	if len(items) != 4 {
		t.Fatalf("%d items", len(items))
	}
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
	}
	if items[0].Response.Cycles().Class != classify.LogStar {
		t.Fatalf("item 0: %+v", items[0].Response.Cycles())
	}
	if items[1].Response.Cycles().Class != classify.Constant {
		t.Fatalf("item 1: %+v", items[1].Response.Cycles())
	}
	if items[3].Response.Paths() == nil {
		t.Fatalf("item 3 lost its mode: %+v", items[3].Response)
	}
	// Of the two identical requests exactly one computed; the other was
	// served by cache or coalesced (scheduling decides which slot).
	computed := 0
	for _, i := range []int{0, 2} {
		if !items[i].Response.CacheHit && !items[i].Response.Coalesced {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d computations for duplicate batch entries", computed)
	}
}

// TestSingleflight: concurrent identical requests against a cold cache
// produce exactly one computation; the rest coalesce or hit the cache.
func TestSingleflight(t *testing.T) {
	e := newTestEngine(t)
	const n = 16
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Trees is slow enough (round elimination) for overlap.
			resps[i], errs[i] = e.Classify(Request{Problem: problems.Coloring(3, 2), Mode: "trees"})
		}(i)
	}
	wg.Wait()
	computed := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !resps[i].CacheHit && !resps[i].Coalesced {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d computations for %d identical concurrent requests", computed, n)
	}
	if st := e.Stats(); st.Cache.Puts != 1 {
		t.Fatalf("expected a single cache fill: %+v", st.Cache)
	}
}

// TestInexactFormBypassesCache: a problem whose canonical search blows
// the permutation budget (9 interchangeable colors: 9! > DefaultMaxPerms)
// must be computed every time — caching an inexact fingerprint could
// serve a refinement-indistinguishable non-isomorph the wrong answer.
func TestInexactFormBypassesCache(t *testing.T) {
	e := newTestEngine(t)
	p := problems.Coloring(9, 2)
	for i := 0; i < 2; i++ {
		resp, err := e.Classify(Request{Problem: p, Mode: "cycles"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit || resp.Coalesced {
			t.Fatalf("request %d served from cache despite inexact canonical form", i)
		}
		if resp.Cycles() == nil || resp.Cycles().Class != classify.LogStar {
			t.Fatalf("9-coloring on cycles: %+v", resp.Cycles())
		}
	}
	if st := e.Stats(); st.Cache.Puts != 0 {
		t.Fatalf("inexact result was cached: %+v", st.Cache)
	}
}

// TestWrapRejectsUnknownPayload: a payload the decider does not
// recognize — here a cache entry written by other code under the
// request's key — is an explicit error, never a silently empty
// response.
func TestWrapRejectsUnknownPayload(t *testing.T) {
	e := newTestEngine(t)
	d, ok := e.registry.Get("cycles")
	if !ok {
		t.Fatal("cycles decider missing")
	}
	req := Request{Mode: "cycles", Problem: problems.Trivial(2)}
	fp, exact, err := d.Fingerprint(&req)
	if err != nil || !exact {
		t.Fatalf("fingerprint: exact=%v err=%v", exact, err)
	}
	e.cache.Put(memo.Key(d.MemoDomain(&req), fp), "not-a-result")
	if _, err := e.Classify(req); err == nil {
		t.Fatal("unknown payload wrapped silently")
	}
	if st := e.Stats(); st.Errors == 0 {
		t.Fatal("wrap error not counted")
	}
}

func TestEngineCensus(t *testing.T) {
	e := newTestEngine(t)
	c, err := e.Census(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !c.GapHolds() {
		t.Fatal("gap violated")
	}
	// Census warms the cache for subsequent cycles traffic on any
	// isomorph of a census problem — here a hand-built two-letter
	// problem (all node configs, monochromatic edges) whose labels are
	// spelled differently from the census normal form.
	hand := lcl.NewBuilder("hand-ising", nil, []string{"↑", "↓"}).
		Node("↑", "↑").Node("↑", "↓").Node("↓", "↓").
		Edge("↑", "↑").Edge("↓", "↓").MustBuild()
	resp, err := e.Classify(Request{Problem: hand, Mode: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("census did not warm the classify cache")
	}
}

// TestGridFingerprintIgnoresName: structurally identical grid requests
// share memo entries regardless of the problem's display name.
func TestGridFingerprintIgnoresName(t *testing.T) {
	e := newTestEngine(t)
	build := func(name string) *lcl.Problem {
		return lcl.NewBuilder(name, nil, []string{"a"}).
			Node("a", "a", "a", "a").Edge("a", "a").MustBuild()
	}
	first, err := e.Classify(Request{Problem: build("p1"), Mode: "grid", Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Classify(Request{Problem: build("p2"), Mode: "grid", Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Fingerprint != second.Fingerprint || !second.CacheHit {
		t.Fatalf("renamed grid problem missed the cache: %x vs %x, hit=%v",
			first.Fingerprint, second.Fingerprint, second.CacheHit)
	}
}

// TestLateRegisteredDeciderServesWithoutPanic: registering a decider
// after engine construction is discouraged (no stats bucket, no census
// job) but must serve requests instead of dereferencing a nil counter.
func TestLateRegisteredDeciderServesWithoutPanic(t *testing.T) {
	r := DefaultRegistry()
	e := New(Config{Workers: 1, Registry: r})
	t.Cleanup(e.Close)
	r.MustRegister(stubLateDecider{})
	resp, err := e.Classify(Request{Mode: "late", Problem: problems.Trivial(2)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != decide.Unknown {
		t.Fatalf("late decider response: %+v", resp)
	}
	if _, ok := e.Stats().ByDecider["late"]; ok {
		t.Fatal("late decider unexpectedly acquired a stats bucket")
	}
}

// stubLateDecider is the minimal decider for the late-registration test.
type stubLateDecider struct{}

func (stubLateDecider) Name() string                          { return "late" }
func (stubLateDecider) Normalize(req *decide.Request) error   { return nil }
func (stubLateDecider) MemoDomain(req *decide.Request) string { return "late" }
func (stubLateDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	return decide.LCLFingerprint(req.Problem)
}
func (stubLateDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	return &struct{ OK bool }{true}, nil
}
func (stubLateDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	return &decide.Verdict{Class: decide.Unknown, Detail: payload}, nil
}
