// Workloads: the seeded request pools, the library oracle that fixes
// each item's expected class, and the property each workload must show
// in the engine's counters. README.md records why each workload exists.

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/problems"
	"repro/internal/service"
)

// treesLevels is the round-elimination depth of every trees-mode item.
const treesLevels = 2

// item is one distinct classification request of a pool.
type item struct {
	mode      string
	maxLevels int
	name      string
	raw       json.RawMessage // the problem in the lcl JSON codec
	body      []byte          // the /v1/classify request body
	expect    string          // expected lattice class, from the oracle
	key       uint64          // memo key the serving path uses
}

// request is one HTTP request the clients replay: a single item or a
// batch of them.
type request struct {
	body  []byte
	items []int  // indices into workload.items, in request order
	dedup int    // expected "deduped" count of a batch response
	ref   []byte // validated response bytes, set before timing
}

// workload is a fully generated, seeded benchmark workload.
type workload struct {
	name    string
	path    string // route the clients post to
	clients int
	items   []*item
	reqs    []*request
	// seq[c] is the order in which client c replays reqs, cyclically,
	// and cursor[c] its next position.
	seq    [][]int
	cursor []int
	// memoShards and memoCap size the engine's memo cache (0 = defaults).
	memoShards, memoCap int
	// warm marks a hit workload: set-up serves every item once, so the
	// timed phase computes nothing.
	warm bool
	// latCap is the per-client latency sample capacity per second of run.
	latCap int
	// heapAt, on a one-client workload whose heap grows with every
	// request, is the number of timed requests after which heap_live_mb
	// is read (0: at the end of the run).
	heapAt int
	// check verifies the workload's defining property on the engine
	// counters of the timed phase.
	check func(d statsDelta) error
}

var workloadNames = []string{"hit-single", "hit-batch", "cold-trees"}

func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	var err error
	switch name {
	case "hit-single":
		w, err = hitSingle(rng)
	case "hit-batch":
		w, err = hitBatch(rng)
	case "cold-trees":
		w, err = coldTrees(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.cursor = make([]int, len(w.seq))
	return w, nil
}

// inReplayOrder lists each request once, in order of first appearance
// in the client sequences taken one after another.
func (w *workload) inReplayOrder() []*request {
	seen := make([]bool, len(w.reqs))
	var out []*request
	for _, seq := range w.seq {
		for _, r := range seq {
			if !seen[r] {
				seen[r] = true
				out = append(out, w.reqs[r])
			}
		}
	}
	return out
}

// battery is the trees pool: the named gap-pipeline battery at maximum
// degree 2 without 3-edge-coloring, whose round elimination alone runs
// for seconds (longer than a run).
func battery() []*lcl.Problem {
	var out []*lcl.Problem
	for _, p := range problems.All(2) {
		if p.Name != "3-edge-coloring" {
			out = append(out, p)
		}
	}
	return out
}

// hitPool is the item sequence shared by both hit workloads. Four in
// five positions are cycle mask problems, one at k = 2 and three at
// k = 3, all in the sealed table's space. The fifth walks the battery in
// seeded rounds, in trees mode and then in paths-inputs mode, so every
// battery problem appears equally often in both (memo hits once warmed).
func hitPool(rng *rand.Rand, n int) ([]*item, []int, error) {
	var items []*item
	index := map[string]int{}
	add := func(mode string, p *lcl.Problem) (int, error) {
		raw, err := json.Marshal(p)
		if err != nil {
			return 0, err
		}
		id := mode + "\x00" + string(raw)
		if i, ok := index[id]; ok {
			return i, nil
		}
		it, err := newItem(mode, p)
		if err != nil {
			return 0, err
		}
		index[id] = len(items)
		items = append(items, it)
		return len(items) - 1, nil
	}
	bat := battery()
	var round []int
	seq := make([]int, n)
	for pos := range seq {
		var p *lcl.Problem
		mode := service.ModeCycles
		if j := pos / 5; pos%5 == 4 {
			if j%len(bat) == 0 {
				round = rng.Perm(len(bat))
			}
			p = bat[round[j%len(bat)]]
			mode = service.ModeTrees
			if (j/len(bat))%2 == 1 {
				mode = service.ModePathsInputs
			}
		} else {
			k := 3
			if pos%5 == 0 {
				k = 2
			}
			space := int(enumerate.CycleMaskSpace(k))
			p = enumerate.FromMasks(k, uint(rng.Intn(space)), uint(rng.Intn(space)))
		}
		i, err := add(mode, p)
		if err != nil {
			return nil, nil, err
		}
		seq[pos] = i
	}
	return items, seq, nil
}

func hitSingle(rng *rand.Rand) (*workload, error) {
	items, seq, err := hitPool(rng, 4000)
	if err != nil {
		return nil, err
	}
	w := &workload{
		name: "hit-single", path: "/v1/classify", clients: 2, items: items,
		warm: true, latCap: 40000, check: checkNoCompute,
	}
	for i, it := range items {
		w.reqs = append(w.reqs, &request{body: it.body, items: []int{i}})
	}
	w.seq = staggered(seq, w.clients)
	return w, nil
}

// batchSize and batchUnique shape hit-batch: each batch holds
// batchUnique items of distinct memo keys and repeats earlier ones
// byte for byte in the remaining slots.
const (
	batchSize   = 256
	batchUnique = 128
	batchCount  = 16
)

func hitBatch(rng *rand.Rand) (*workload, error) {
	items, seq, err := hitPool(rng, 4000)
	if err != nil {
		return nil, err
	}
	w := &workload{
		name: "hit-batch", path: "/v1/classify/batch", clients: 2, items: items,
		warm: true, latCap: 1500, check: checkNoCompute,
	}
	for b := 0; b < batchCount; b++ {
		// Unique items walk the hit sequence from a random offset, so the
		// batch keeps its mode mix; duplicate slots are spread at random
		// but never first.
		var uniq []int
		keys := map[uint64]bool{}
		for pos := rng.Intn(len(seq)); len(uniq) < batchUnique; pos = (pos + 1) % len(seq) {
			it := items[seq[pos]]
			if !keys[it.key] {
				keys[it.key] = true
				uniq = append(uniq, seq[pos])
			}
		}
		dup := make([]bool, batchSize)
		for _, j := range rng.Perm(batchSize - 1)[:batchSize-batchUnique] {
			dup[j+1] = true
		}
		req := &request{dedup: batchSize - batchUnique}
		raws := make([]json.RawMessage, batchSize)
		next := 0
		for j := range raws {
			var i int
			if dup[j] {
				i = req.items[rng.Intn(len(req.items))]
			} else {
				i = uniq[next]
				next++
			}
			req.items = append(req.items, i)
			raws[j] = items[i].body
		}
		body, err := json.Marshal(map[string][]json.RawMessage{"requests": raws})
		if err != nil {
			return nil, err
		}
		req.body = body
		w.reqs = append(w.reqs, req)
	}
	w.seq = staggered(rng.Perm(batchCount), w.clients)
	return w, nil
}

// coldHeapAt is the request count at which cold-trees reads its live
// heap. internal/re's caches grow on every trees compute, so a reading
// at the end of the run would grow with throughput.
const coldHeapAt = 1000

func coldTrees(rng *rand.Rand) (*workload, error) {
	// One client: two concurrent trees computes race on the
	// unsynchronized package-level caches of internal/re.
	w := &workload{
		name: "cold-trees", path: "/v1/classify", clients: 1,
		memoShards: 1, memoCap: 4, latCap: 400, heapAt: coldHeapAt, check: checkAllCompute,
	}
	keys := map[uint64]bool{}
	for _, p := range battery() {
		it, err := newItem(service.ModeTrees, p)
		if err != nil {
			return nil, err
		}
		// Problems isomorphic to an earlier one (free-orientation is
		// sinkless-orientation at degree 2) share its memo key and would
		// be served from the memo.
		if keys[it.key] {
			continue
		}
		keys[it.key] = true
		w.reqs = append(w.reqs, &request{body: it.body, items: []int{len(w.items)}})
		w.items = append(w.items, it)
	}
	w.seq = [][]int{rounds(rng, len(w.reqs), coldRounds, w.memoCap)}
	return w, nil
}

// coldRounds is the number of rounds in the cold-trees sequence.
const coldRounds = 100

// rounds returns count seeded permutations of n keys, one after another.
// Every key appears once per round, so each problem weighs the same on
// every seed, while its neighbours (and so the garbage collector's state
// when it runs) change from round to round. No key recurs within gap
// requests, also across round boundaries and the wrap-around, so a memo
// holding gap entries never hits.
func rounds(rng *rand.Rand, n, count, gap int) []int {
	var seq []int
	disjoint := func(a, b []int) bool {
		return !slices.ContainsFunc(a, func(k int) bool { return slices.Contains(b, k) })
	}
	for len(seq) < n*count {
		p := rng.Perm(n)
		if len(seq) > 0 && !disjoint(p[:gap], seq[len(seq)-gap:]) {
			continue
		}
		if len(seq)+n == n*count && !disjoint(p[n-gap:], seq[:gap]) {
			continue // the last round also leads into the first
		}
		seq = append(seq, p...)
	}
	return seq
}

// staggered gives every client the whole sequence, each starting at its
// own offset.
func staggered(seq []int, clients int) [][]int {
	out := make([][]int, clients)
	for c := range out {
		off := c * len(seq) / clients
		out[c] = append(append([]int(nil), seq[off:]...), seq[:off]...)
	}
	return out
}

// newItem builds one request item: its wire body, its serving memo key
// (through the registered decider, exactly as the engine derives it)
// and its expected class from the library oracle.
func newItem(mode string, p *lcl.Problem) (*item, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("marshal %s: %w", p.Name, err)
	}
	it := &item{mode: mode, name: p.Name, raw: raw}
	if mode == service.ModeTrees {
		it.maxLevels = treesLevels
	}
	it.body, err = json.Marshal(struct {
		Mode      string          `json:"mode"`
		Problem   json.RawMessage `json:"problem"`
		MaxLevels int             `json:"max_levels,omitempty"`
	}{mode, raw, it.maxLevels})
	if err != nil {
		return nil, err
	}
	req := it.request(p)
	d, _ := registry.Get(mode)
	if err := d.Normalize(&req); err != nil {
		return nil, err
	}
	fp, exact, err := d.Fingerprint(&req)
	if err != nil || !exact {
		return nil, fmt.Errorf("fingerprint %s/%s: exact=%v err=%v", mode, p.Name, exact, err)
	}
	it.key = memo.Key(d.MemoDomain(&req), fp)
	it.expect, err = oracle(mode, p)
	return it, err
}

// request returns the engine request for the item over problem p.
func (it *item) request(p *lcl.Problem) service.Request {
	return service.Request{Mode: it.mode, Problem: p, MaxLevels: it.maxLevels}
}

// registry resolves modes to deciders for the layer calls.
var registry = service.DefaultRegistry()

// oracle is the expected lattice class straight from the decision
// procedures, bypassing the service.
func oracle(mode string, p *lcl.Problem) (string, error) {
	switch mode {
	case service.ModeCycles:
		r, err := classify.Cycles(p)
		if err != nil {
			return "", err
		}
		return r.Class.Lattice().String(), nil
	case service.ModeTrees:
		v, err := core.ClassifyOnTrees(p, treesLevels)
		if err != nil {
			return "", err
		}
		return v.Lattice().String(), nil
	case service.ModePathsInputs:
		r, err := classify.PathsWithInputs(p)
		if err != nil {
			return "", err
		}
		// A bad input certifies unsolvability; solvability on every
		// input pins no complexity.
		if r.SolvableAllInputs {
			return decide.Unknown.String(), nil
		}
		return decide.Unsolvable.String(), nil
	}
	return "", fmt.Errorf("no oracle for mode %q", mode)
}

// statsDelta is the change in engine counters over the timed phase.
type statsDelta struct {
	items                                 int
	requests, puts, hits, misses, evicted uint64
	sealedHits, sealedMisses, coalesced   uint64
}

func diffStats(a, b service.Stats, items int) statsDelta {
	d := statsDelta{
		items:     items,
		requests:  b.Requests - a.Requests,
		puts:      b.Cache.Puts - a.Cache.Puts,
		hits:      b.Cache.Hits - a.Cache.Hits,
		misses:    b.Cache.Misses - a.Cache.Misses,
		evicted:   b.Cache.Evictions - a.Cache.Evictions,
		coalesced: b.Coalesced - a.Coalesced,
	}
	if a.Sealed != nil && b.Sealed != nil {
		d.sealedHits = b.Sealed.Hits - a.Sealed.Hits
		d.sealedMisses = b.Sealed.Misses - a.Sealed.Misses
	}
	return d
}

func (d statsDelta) servedAll() error {
	if d.requests != uint64(d.items) {
		return fmt.Errorf("engine counted %d requests for %d items", d.requests, d.items)
	}
	return nil
}

// checkNoCompute: a hit workload is served entirely from the sealed
// table and the warmed memo.
func checkNoCompute(d statsDelta) error {
	if err := d.servedAll(); err != nil {
		return err
	}
	if d.puts != 0 || d.misses != 0 || d.coalesced != 0 {
		return fmt.Errorf("hit workload computed: %d memo misses, %d puts, %d coalesced", d.misses, d.puts, d.coalesced)
	}
	return nil
}

// checkAllCompute: every cold-trees request runs round elimination.
func checkAllCompute(d statsDelta) error {
	if err := d.servedAll(); err != nil {
		return err
	}
	if d.hits != 0 || d.puts != uint64(d.items) {
		return fmt.Errorf("cold workload hit the memo: %d hits, %d puts for %d items", d.hits, d.puts, d.items)
	}
	return nil
}
