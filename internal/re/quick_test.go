package re

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lcl"
)

func TestSetOfCardinalityProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var labels []int
		for _, r := range raw {
			labels = append(labels, int(r%60))
		}
		s := SetOf(labels...)
		uniq := map[int]bool{}
		for _, l := range labels {
			uniq[l] = true
		}
		if bits.OnesCount64(uint64(s)) != len(uniq) {
			return false
		}
		for l := range uniq {
			if !s.Has(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllSubsetsEnumeratesPowerSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var labels []int
		for len(labels) < 1+rng.Intn(5) {
			labels = append(labels, rng.Intn(12))
		}
		u := SetOf(labels...)
		count := 0
		seen := map[Set]bool{}
		AllSubsets(u, func(s Set) bool {
			count++
			seen[s] = true
			// Every enumerated set is a subset of the universe.
			return s&^u == 0
		})
		// AllSubsets enumerates the *nonempty* subsets.
		return count == 1<<uint(bits.OnesCount64(uint64(u)))-1 && len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// intersectionClosureSweep is the closure IntersectionClosure replaced:
// full pairwise sweeps over a snapshot of the family until one adds
// nothing. It is the oracle for the worklist's family, as a set.
func intersectionClosureSweep(rows []Set) []Set {
	seen := map[Set]bool{}
	var family []Set
	add := func(s Set) bool {
		if s.Empty() || seen[s] {
			return false
		}
		seen[s] = true
		family = append(family, s)
		return true
	}
	for _, r := range rows {
		add(r)
	}
	for changed := true; changed; {
		changed = false
		snapshot := append([]Set(nil), family...)
		for i := 0; i < len(snapshot); i++ {
			for j := i + 1; j < len(snapshot); j++ {
				if add(snapshot[i].Inter(snapshot[j])) {
					changed = true
				}
			}
		}
	}
	return family
}

// TestIntersectionClosureMatchesSweep checks the worklist closure against
// the sweeping one on random rows: the same family as a set, without
// repeats.
func TestIntersectionClosureMatchesSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Set, rng.Intn(14))
		width := 1 + rng.Intn(20)
		for i := range rows {
			rows[i] = Set(rng.Int63n(1 << width))
		}
		got, want := IntersectionClosure(rows), intersectionClosureSweep(rows)
		slices.Sort(got)
		slices.Sort(want)
		return slices.Equal(got, want) && len(slices.Compact(got)) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionClosureIsClosedAndContainsInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Set, 1+rng.Intn(6))
		for i := range rows {
			rows[i] = Set(rng.Intn(1 << 10))
		}
		closed := IntersectionClosure(rows)
		in := map[Set]bool{}
		for _, s := range closed {
			in[s] = true
		}
		for _, r := range rows {
			if r != 0 && !in[r] {
				return false
			}
		}
		for _, a := range closed {
			for _, b := range closed {
				if c := a & b; c != 0 && !in[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalInvariantUnderRandomRenaming renames output labels of
// random small problems by a random permutation and checks the canonical
// string is unchanged — the property fixed-point detection rests on.
func TestCanonicalInvariantUnderRandomRenaming(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomNECProblem(rng)
		perm := rng.Perm(p.NumOut())
		q := renameOutputs(p, perm)
		return Canonical(p) == Canonical(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomNECProblem draws a small random problem over degrees {1, 2}.
func randomNECProblem(rng *rand.Rand) *lcl.Problem {
	k := 2 + rng.Intn(2)
	names := make([]string, k)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	p := &lcl.Problem{
		Name:     "rand",
		InNames:  []string{"·"},
		OutNames: names,
		Node:     map[int][]lcl.Multiset{},
	}
	for a := 0; a < k; a++ {
		if rng.Intn(2) == 0 {
			p.Node[1] = append(p.Node[1], lcl.NewMultiset(a))
		}
		for b := a; b < k; b++ {
			if rng.Intn(2) == 0 {
				p.Node[2] = append(p.Node[2], lcl.NewMultiset(a, b))
			}
			if rng.Intn(2) == 0 {
				p.Edge = append(p.Edge, lcl.NewMultiset(a, b))
			}
		}
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	p.G = [][]int{all}
	return p
}

// renameOutputs applies a label permutation to every constraint.
func renameOutputs(p *lcl.Problem, perm []int) *lcl.Problem {
	q := &lcl.Problem{
		Name:     p.Name + "-renamed",
		InNames:  append([]string(nil), p.InNames...),
		OutNames: make([]string, p.NumOut()),
		Node:     map[int][]lcl.Multiset{},
	}
	for old, new_ := range perm {
		q.OutNames[new_] = p.OutNames[old]
	}
	for d, list := range p.Node {
		for _, m := range list {
			r := make(lcl.Multiset, len(m))
			for i, x := range m {
				r[i] = perm[x]
			}
			q.Node[d] = append(q.Node[d], lcl.NewMultiset(r...))
		}
	}
	for _, m := range p.Edge {
		q.Edge = append(q.Edge, lcl.NewMultiset(perm[m[0]], perm[m[1]]))
	}
	q.G = make([][]int, p.NumIn())
	for in := range q.G {
		for _, o := range p.G[in] {
			q.G[in] = append(q.G[in], perm[o])
		}
	}
	return q
}

// TestApplyPreservesInputAlphabet: R and R̄ keep Σin fixed (Definition
// 3.1 sets Σ^{R(Π)}_in = Σ^Π_in) on random problems.
func TestApplyPreservesInputAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		p := randomNECProblem(rng)
		if p.Validate() != nil {
			continue
		}
		for _, op := range []Op{OpR, OpRBar} {
			st, err := Apply(p, op, Faithful, Limits{})
			if err != nil {
				continue // alphabet blow-up guard tripped; acceptable
			}
			if got, want := st.Prob.NumIn(), p.NumIn(); got != want {
				t.Fatalf("op %v changed input alphabet: %d -> %d", op, want, got)
			}
		}
	}
}
