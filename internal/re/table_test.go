package re

import (
	"math/rand"
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
