package re

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lcl"
)

// bruteNode decides the universal (all) or existential node constraint
// on sets by enumerating every selection through lcl.Problem.NodeAllowed.
func bruteNode(p *lcl.Problem, sets []Set, all bool) bool {
	pick := make([]int, len(sets))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(sets) {
			return p.NodeAllowed(lcl.NewMultiset(pick...))
		}
		for _, a := range sets[i].Members() {
			pick[i] = a
			if rec(i+1) != all {
				return !all
			}
		}
		return all
	}
	return rec(0)
}

// hits reports whether some selection P of one label from each set of
// others has complete(P) ∩ target ≠ ∅.
func (n *nodeTable) hits(s *selScratch, others []Set, target Set, pick []byte) bool {
	if len(pick) == len(others) {
		return target&n.completeOf(s, pick) != 0
	}
	for x := uint64(others[len(pick)]); x != 0; x &= x - 1 {
		if n.hits(s, others, target, append(pick, byte(bits.TrailingZeros64(x)))) {
			return true
		}
	}
	return false
}

// largest returns the index of the largest set; walking the other
// coordinates and testing it against a completion set does the least work.
func largest(sets []Set) int {
	k := 0
	for i, s := range sets {
		if s.Count() > sets[k].Count() {
			k = i
		}
	}
	return k
}

// forAll reports whether every selection (a1..ad) ∈ A1 × … × Ad has
// {a1..ad} ∈ Nᵈ: Definition 3.2's universal node constraint, decided for
// one tuple of sets on its own.
func (n *nodeTable) forAll(s *selScratch, sets []Set) bool {
	if n.d == 0 {
		return len(n.configs) > 0
	}
	k := largest(sets)
	return n.meet(s, s.split(sets, k), sets[k], sets[k], s.pick[:0]) == sets[k]
}

// exists reports whether some selection (a1..ad) ∈ A1 × … × Ad has
// {a1..ad} ∈ Nᵈ: Definition 3.1's existential node constraint, decided
// for one tuple of sets on its own.
func (n *nodeTable) exists(s *selScratch, sets []Set) bool {
	if n.d == 0 {
		return len(n.configs) > 0
	}
	k := largest(sets)
	return n.hits(s, s.split(sets, k), sets[k], s.pick[:0])
}

// nodeConfigsOracle is the degree-d node constraint over cand as apply
// built it before covers were shared between multisets: forAll (R̄) or
// exists (R) on each sorted d-multiset of candidates in turn.
func nodeConfigsOracle(n *nodeTable, cand []Set, op Op) []lcl.Multiset {
	sc := newSelScratch(n.d)
	sets := make([]Set, n.d)
	var configs []lcl.Multiset
	multisetsOf(len(cand), n.d, func(m idMultiset) {
		for k, id := range m {
			sets[k] = cand[id]
		}
		if (op == OpR && n.exists(sc, sets)) || (op == OpRBar && n.forAll(sc, sets)) {
			configs = append(configs, lcl.Multiset(slices.Clone(m)))
		}
	})
	return configs
}

// TestTableMatchesProblem checks the compiled table against lcl.Problem's
// own membership tests on random problems: edge rows, g masks, the
// self-loop set, and the universal and existential node checks on random
// set tuples at every degree.
func TestTableMatchesProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		p := randomNEC(rng, 2+rng.Intn(3), 4, trial%2 == 0)
		tab, err := compile(p)
		if err != nil {
			t.Fatal(err)
		}
		L := p.NumOut()
		for a := 0; a < L; a++ {
			if tab.self.Has(a) != p.EdgeAllowed(a, a) {
				t.Fatalf("trial %d: self-loop of %d", trial, a)
			}
			for b := 0; b < L; b++ {
				if tab.edge[a].Has(b) != p.EdgeAllowed(a, b) {
					t.Fatalf("trial %d: edge row %d at %d", trial, a, b)
				}
			}
			for in := 0; in < p.NumIn(); in++ {
				if tab.g[in].Has(a) != p.GAllowed(in, a) {
					t.Fatalf("trial %d: g(%d) at %d", trial, in, a)
				}
			}
		}
		for _, d := range tab.degrees {
			n := tab.node[d]
			sc := newSelScratch(d)
			sets := make([]Set, d)
			for k := 0; k < 40; k++ {
				for i := range sets {
					sets[i] = Set(1 + rng.Intn(1<<L-1))
				}
				if got, want := n.forAll(sc, sets), bruteNode(p, sets, true); got != want {
					t.Fatalf("trial %d: forAll%v at degree %d = %v, want %v", trial, sets, d, got, want)
				}
				if got, want := n.exists(sc, sets), bruteNode(p, sets, false); got != want {
					t.Fatalf("trial %d: exists%v at degree %d = %v, want %v", trial, sets, d, got, want)
				}
			}
		}
	}
}

// FuzzNodeConstraints checks nodeConfigs, which walks each (d−1)-label
// prefix once for a cover shared by every last label, against the oracle
// that decides each d-multiset on its own, for R and R̄: the same
// configurations in the same order. The table is fuzzNodeTable's; the
// candidate list is up to 12 label sets read from the tail of the input.
func FuzzNodeConstraints(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0, 1, 2, 3, 4, 5, 6, 7, 3, 5, 255})
	f.Add([]byte{1, 3, 6, 0, 1, 1, 2, 2, 3, 1, 2, 4, 6, 7})
	f.Add([]byte{2, 5, 9, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 0, 0, 1, 3, 7, 6, 31, 16, 8, 12, 2})
	f.Add([]byte{3, 5, 11, 0, 0, 1, 2, 0, 1, 1, 2, 0, 1, 2, 3, 1, 1, 2, 4, 1, 2, 3, 6, 5, 24, 17, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, full, _ := fuzzNodeTable(data)
		var cand []Set
		if len(data) > 2 {
			k := min(1+int(data[2])%12, len(data)-3)
			for _, b := range data[len(data)-k:] {
				cand = append(cand, Set(b)&full)
			}
		}
		for _, op := range []Op{OpR, OpRBar} {
			var slab multisetSlab
			got := nodeConfigs(n, cand, op, full, &slab)
			want := nodeConfigsOracle(n, cand, op)
			if !slices.EqualFunc(got, want, slices.Equal[lcl.Multiset]) {
				t.Fatalf("%s d=%d configs=%v cand=%v: %v, oracle %v", op, n.d, n.configs, cand, got, want)
			}
		}
	})
}

// completionsOracle is the string-keyed completion map the flat table
// replaced: each sorted (d−1)-label prefix, as bytes, to its completions.
func completionsOracle(d int, configs []lcl.Multiset) map[string]Set {
	comp := map[string]Set{}
	prefix := make([]byte, 0, d-1)
	for _, m := range configs {
		for j, x := range m {
			prefix = prefix[:0]
			for k, y := range m {
				if k != j {
					prefix = append(prefix, byte(y))
				}
			}
			comp[string(prefix)] = comp[string(prefix)].Add(x)
		}
	}
	return comp
}

// sameCompletions fails t unless the node table compiled from configs
// answers every prefix of the oracle, and the probes, as the oracle does.
func sameCompletions(t *testing.T, d, L int, configs []lcl.Multiset, probes [][]byte) {
	t.Helper()
	n := compileNode(d, configs, L)
	want := completionsOracle(d, configs)
	if n.comp.count != len(want) {
		t.Fatalf("d=%d configs=%v: %d prefixes, oracle %d", d, configs, n.comp.count, len(want))
	}
	for prefix, set := range want {
		if got := n.complete([]byte(prefix)); got != set {
			t.Fatalf("d=%d configs=%v: prefix %v completes to %v, oracle %v", d, configs, []byte(prefix), got, set)
		}
	}
	for _, prefix := range probes {
		if got := n.complete(prefix); got != want[string(prefix)] {
			t.Fatalf("d=%d configs=%v: probe %v completes to %v, oracle %v", d, configs, prefix, got, want[string(prefix)])
		}
	}
}

// FuzzNodeCompletions checks the flat completion table against the
// string-keyed map at degrees 3, 4 and 5 over up to 63 labels, on
// configuration lists with repeats, and probes prefixes that may be
// missing.
func FuzzNodeCompletions(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{1, 62, 0, 61, 62, 61, 0, 5, 5, 5, 5})
	f.Add([]byte{2, 9, 1, 0, 0, 0, 0, 1, 8, 8, 8, 8, 8, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		d := 3 + at(0)%3
		L := 1 + at(1)%MaxBaseLabels
		var configs []lcl.Multiset
		var probes [][]byte
		for i := 3; i+d <= len(data) && len(configs) < 64; i += d {
			m := make(lcl.Multiset, d)
			for k := range m {
				m[k] = int(data[i+k]) % L
			}
			probe := make([]byte, d-1)
			for k := range probe {
				probe[k] = byte(m[k+1])
			}
			slices.Sort(m)
			slices.Sort(probe)
			configs = append(configs, m)
			probes = append(probes, probe)
		}
		if at(2)%2 == 1 && len(configs) > 0 {
			configs = append(configs, configs[0]) // a repeat
		}
		sameCompletions(t, d, L, configs, probes)
	})
}

// TestNodeCompletionsLongPrefixes runs the oracle check at degrees whose
// prefixes take two and three key words.
func TestNodeCompletionsLongPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range []int{11, 12, 20, 21, 22, 25} {
		for trial := 0; trial < 20; trial++ {
			L := 1 + rng.Intn(MaxBaseLabels)
			var configs []lcl.Multiset
			var probes [][]byte
			for range 1 + rng.Intn(40) {
				m := make(lcl.Multiset, d)
				for k := range m {
					m[k] = rng.Intn(min(L, 1+trial%4))
				}
				slices.Sort(m)
				configs = append(configs, m)
				probe := make([]byte, d-1)
				for k := range probe {
					probe[k] = byte(rng.Intn(L))
				}
				slices.Sort(probe)
				probes = append(probes, probe)
			}
			sameCompletions(t, d, L, configs, probes)
		}
	}
}
