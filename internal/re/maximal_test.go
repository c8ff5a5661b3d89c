package re

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/lcl"
	"repro/internal/problems"
)

// maximalConfigsOracle is the string-keyed maximal-configuration search
// that the reverse search replaced, kept as the reference for its output,
// its error and, through pops, the number of states it pops.
func maximalConfigsOracle(n *nodeTable, full Set, lim Limits) (maximal [][]Set, pops int, err error) {
	d := n.d
	seen := map[string]struct{}{}
	var queue [][]Set
	var store []Set // chunk the queued configurations are copied into
	sorted := make([]Set, d)
	key := make([]byte, 0, 8*d)
	// push queues a copy of cfg unless an equal configuration, as a sorted
	// multiset of sets, was queued before.
	push := func(cfg []Set) {
		copy(sorted, cfg)
		slices.Sort(sorted)
		key = key[:0]
		for _, s := range sorted {
			key = binary.LittleEndian.AppendUint64(key, uint64(s))
		}
		if _, dup := seen[string(key)]; dup {
			return
		}
		seen[string(key)] = struct{}{}
		if cap(store)-len(store) < d {
			store = make([]Set, 0, max(2*cap(store), 16*d))
		}
		store = append(store, cfg...)
		queue = append(queue, store[len(store)-d:len(store):len(store)])
	}
	next := make([]Set, d)
	for _, m := range n.configs {
		for i, a := range m {
			next[i] = SetOf(a)
		}
		push(next)
	}
	sc := newSelScratch(d)
	iter := 0
	for len(queue) > 0 {
		iter++
		if iter > lim.MaxExpandIter {
			return nil, iter, fmt.Errorf("re: maximal-config search exceeded %d states at degree %d", lim.MaxExpandIter, d)
		}
		cfg := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		expanded := false
		for i := range cfg {
			grow := n.meet(sc, sc.split(cfg, i), full&^cfg[i], 0, sc.pick[:0])
			for x := uint64(grow); x != 0; x &= x - 1 {
				expanded = true
				copy(next, cfg)
				next[i] = cfg[i].Add(bits.TrailingZeros64(x))
				push(next)
			}
		}
		if !expanded {
			maximal = append(maximal, cfg)
		}
	}
	return maximal, iter, nil
}

// sameResult fails t unless the search's result, got and gotErr, is
// the oracle's: the same maximal configurations, as a set of sorted
// multisets of sets, or the same error.
func sameResult(t *testing.T, what string, got [][]Set, gotErr error, want [][]Set, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d maximal configurations, oracle %d", what, len(got), len(want))
	}
	got, want = sortedConfigs(got), sortedConfigs(want)
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: maximal configuration %d (in sorted order) is %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// sortedConfigs returns a copy of configs with each configuration sorted
// and the list sorted lexicographically.
func sortedConfigs(configs [][]Set) [][]Set {
	out := make([][]Set, len(configs))
	for i, cfg := range configs {
		out[i] = slices.Sorted(slices.Values(cfg))
	}
	slices.SortFunc(out, slices.Compare[[]Set])
	return out
}

// fuzzNodeTable builds a node table from fuzz bytes: a degree in
// {1, 2, 3, 4}, at most 8 labels and at most 24 configurations.
func fuzzNodeTable(data []byte) (*nodeTable, Set, Limits) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	d := 1 + at(0)%4
	L := 1 + at(1)%8
	lim := Limits{MaxExpandIter: [...]int{1, 7, 50, Limits{}.withDefaults().MaxExpandIter}[at(2)%4]}
	var configs []lcl.Multiset
	for i := 3; i+d <= len(data) && len(configs) < 24; i += d {
		m := make(lcl.Multiset, d)
		for k := range m {
			m[k] = int(data[i+k]) % L
		}
		sort.Ints(m)
		configs = append(configs, m)
	}
	return compileNode(d, configs, L), Set(1)<<uint(L) - 1, lim
}

func FuzzMaximalConfigs(f *testing.F) {
	f.Add([]byte{0, 7, 3, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 3, 3, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{2, 5, 2, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 0, 0})
	f.Add([]byte{2, 7, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 3, 4, 5, 6, 4, 5, 7})
	f.Add([]byte{1, 7, 1, 0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 4, 6})
	f.Add([]byte{3, 5, 3, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 2, 3, 1, 1, 2, 4, 0, 2, 3, 4})
	f.Add([]byte{3, 3, 2, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 2, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, full, lim := fuzzNodeTable(data)
		sameAsOracle(t, fmt.Sprintf("d=%d configs=%v lim=%d", n.d, n.configs, lim.MaxExpandIter), n, full, lim)
	})
}

// sameAsOracle fails t unless the search on n under lim returns the
// oracle's result and, where the oracle succeeds, pops exactly as many
// states: a budget of the oracle's count succeeds and one less fails.
func sameAsOracle(t *testing.T, what string, n *nodeTable, full Set, lim Limits) {
	t.Helper()
	want, pops, wantErr := maximalConfigsOracle(n, full, lim)
	got, err := maximalUniversalNodeConfigs(n, full, lim)
	sameResult(t, what, got, err, want, wantErr)
	if wantErr != nil || pops == 0 {
		return
	}
	got, err = maximalUniversalNodeConfigs(n, full, Limits{MaxExpandIter: pops})
	sameResult(t, what+" at its pop count", got, err, want, nil)
	got, err = maximalUniversalNodeConfigs(n, full, Limits{MaxExpandIter: pops - 1})
	sameResult(t, what+" one under its pop count", got, err, nil,
		fmt.Errorf("re: maximal-config search exceeded %d states at degree %d", pops-1, n.d))
}

// fuzzDegreeTwoTable builds a degree-2 node table from fuzz bytes: up to
// 63 labels, so that labels reach bit 62, and a budget of at most 5,000
// states, so that the oracle stays fast. A dense table starts from every
// pair and the bytes remove pairs; a sparse one starts empty and the
// bytes add them.
func fuzzDegreeTwoTable(data []byte) (*nodeTable, Set, Limits) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	L := 1 + at(0)%MaxBaseLabels
	lim := Limits{MaxExpandIter: (at(1)<<8 | at(2)) % 5_001}
	dense := at(3)%2 == 1
	pairs := map[[2]int]bool{}
	if dense {
		for a := range L {
			for b := a; b < L; b++ {
				pairs[[2]int{a, b}] = true
			}
		}
	}
	for i := 4; i+1 < len(data) && i < 4+2*96; i += 2 {
		a, b := int(data[i])%L, int(data[i+1])%L
		pairs[[2]int{min(a, b), max(a, b)}] = !dense
	}
	var configs []lcl.Multiset
	for pair, in := range pairs {
		if in {
			configs = append(configs, lcl.Multiset{pair[0], pair[1]})
		}
	}
	slices.SortFunc(configs, slices.Compare[lcl.Multiset])
	return compileNode(2, configs, L), Set(1)<<uint(L) - 1, lim
}

func FuzzMaximalDegreeTwo(f *testing.F) {
	f.Add([]byte{62, 0, 200, 0, 0, 62, 1, 62, 2, 62, 61, 62, 62, 62})
	f.Add([]byte{62, 19, 136, 1, 0, 1, 5, 9, 61, 62})
	f.Add([]byte{7, 0, 50, 0, 0, 1, 1, 2, 2, 3, 0, 3, 4, 5, 5, 6, 6, 7})
	f.Add([]byte{40, 1, 0, 1})
	f.Add([]byte{62, 0, 100, 1, 0, 62, 3, 62})
	f.Add([]byte{2, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, full, lim := fuzzDegreeTwoTable(data)
		sameAsOracle(t, fmt.Sprintf("labels=%d configs=%v lim=%d", len(n.rows), n.configs, lim.MaxExpandIter), n, full, lim)
	})
}

// TestMaximalConfigsMatchOracleOnBattery runs the search on every node
// table R̄ reads in the first two levels of the Δ=2 and Δ=3 batteries,
// including a table on which the default budget runs out. It must return
// the oracle's output, and pop exactly as many states: a budget of the
// oracle's count succeeds and one less fails.
func TestMaximalConfigsMatchOracleOnBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the string-keyed search on every battery table")
	}
	lim := Limits{}.withDefaults()
	for _, delta := range []int{2, 3} {
		for _, p := range problems.All(delta) {
			cur := p
			tab, err := compile(p)
			if err != nil {
				t.Fatal(err)
			}
			for level := 0; level < 2; level++ {
				r, err := apply(cur, tab, OpR, Pruned, lim)
				if err != nil {
					break
				}
				full := Set(1)<<uint(r.Prob.NumOut()) - 1
				for _, d := range r.tab.degrees {
					sameAsOracle(t, fmt.Sprintf("%s Δ=%d level %d degree %d", p.Name, delta, level, d), r.tab.node[d], full, lim)
				}
				rr, err := apply(r.Prob, r.tab, OpRBar, Pruned, lim)
				if err != nil {
					break
				}
				cur, tab = rr.Prob, rr.tab
			}
		}
	}
}
