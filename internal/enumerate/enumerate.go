// Package enumerate performs an exhaustive census of small LCL problems
// on cycles and verifies the complexity landscape of Figure 1 empirically:
// every enumerated problem lands in one of the four decidable classes
// (unsolvable, O(1), Θ(log* n), Θ(n)) and *no problem* falls strictly
// between ω(1) and Θ(log* n) — the gap the paper's Theorem 1.1 proves for
// trees and that was known classically for paths and cycles (Section 1.4).
//
// The census enumerates every node-edge-checkable LCL without inputs over
// a k-letter output alphabet on cycles: a problem is a pair (N², E) of
// subsets of the k(k+1)/2 cardinality-2 multisets, so there are
// 4^(k(k+1)/2) problems in total (64 for k = 2, 4096 for k = 3). Each is
// classified with the automata-theoretic decider (internal/classify),
// cross-checked against exact dynamic-programming solvability, and — for
// the constant class — validated constructively by synthesizing an actual
// order-invariant constant-round algorithm (see synth.go).
package enumerate

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/lcl"
)

// PairCount returns the number of cardinality-2 multisets over k labels,
// i.e. the number of bits in the node- and edge-constraint masks.
func PairCount(k int) int { return k * (k + 1) / 2 }

// pairs lists the cardinality-2 multisets (a, b), a <= b, over k labels in
// a fixed order so constraint subsets can be addressed as bitmasks.
func pairs(k int) [][2]int {
	out := make([][2]int, 0, PairCount(k))
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// pairIndex returns the bit position of the multiset {a, b} in the mask
// ordering used by pairs.
func pairIndex(k, a, b int) int {
	if a > b {
		a, b = b, a
	}
	// Pairs with first coordinate < a occupy sum_{i<a} (k-i) bits.
	return a*k - a*(a-1)/2 + (b - a)
}

// alphabet is the single-letter output alphabet A, B, C, ... (26 labels
// is far beyond anything the census enumerates).
var alphabet = func() (a [26]string) {
	for i := range a {
		a[i] = string(rune('A' + i))
	}
	return a
}()

// labelNames returns the first k letters of alphabet, without copying:
// problems built from it share its strings, as every lcl.Problem is
// read-only once built. The capacity is k, so an append copies.
func labelNames(k int) []string {
	return alphabet[:k:k]
}

// FromMasks materializes the cycle LCL with node-constraint mask n2 and
// edge-constraint mask e over a k-letter alphabet. Bit i of each mask
// corresponds to pairs(k)[i]. The problem has a single input label and
// g = "all outputs", the normal form for input-free problems: restricting
// g only deletes labels, which the census already covers at smaller k.
func FromMasks(k int, n2, e uint) *lcl.Problem {
	ps := pairs(k)
	names := labelNames(k)
	b := lcl.NewBuilder(fmt.Sprintf("enum-k%d-N%d-E%d", k, n2, e), nil, names)
	for i, pr := range ps {
		if n2&(1<<uint(i)) != 0 {
			b.Node(names[pr[0]], names[pr[1]])
		}
	}
	for i, pr := range ps {
		if e&(1<<uint(i)) != 0 {
			b.Edge(names[pr[0]], names[pr[1]])
		}
	}
	return b.MustBuild()
}

// Masks recovers the (node, edge) constraint masks of a census problem;
// it is the inverse of FromMasks and is used by tests to confirm the
// enumeration is a bijection.
func Masks(p *lcl.Problem) (n2, e uint) {
	k := p.NumOut()
	for _, m := range p.Node[2] {
		n2 |= 1 << uint(pairIndex(k, m[0], m[1]))
	}
	for _, m := range p.Edge {
		e |= 1 << uint(pairIndex(k, m[0], m[1]))
	}
	return n2, e
}

// CanonicalKey returns the lexicographically smallest (node, edge) mask
// pair over all k! relabelings of the output alphabet. Problems with equal
// keys are exactly the label-isomorphic ones; the census uses the key to
// deduplicate. For k <= canon.MaxOrbitK (every census alphabet) the
// answer is a pure table lookup over the precomputed orbit tables —
// zero allocations; larger k fall back to the permutation sweep.
func CanonicalKey(k int, n2, e uint) (uint, uint) {
	if k <= canon.MaxOrbitK {
		return canon.Orbits(k).CanonicalPair(n2, e)
	}
	return canonicalKeySweep(k, n2, e)
}

// canonicalKeySweep is the reference implementation of CanonicalKey: a
// fresh Heap's-algorithm sweep over all k! relabelings. It is the
// fallback beyond the orbit tables and the oracle the orbit-table
// property tests compare against.
func canonicalKeySweep(k int, n2, e uint) (uint, uint) {
	bestN, bestE := n2, e
	forEachPermutation(k, func(perm []int) {
		pn, pe := permuteMask(k, n2, perm), permuteMask(k, e, perm)
		if pn < bestN || (pn == bestN && pe < bestE) {
			bestN, bestE = pn, pe
		}
	})
	return bestN, bestE
}

// permuteMask renames labels in a pair mask according to perm.
func permuteMask(k int, mask uint, perm []int) uint {
	var out uint
	for i, pr := range pairs(k) {
		if mask&(1<<uint(i)) != 0 {
			out |= 1 << uint(pairIndex(k, perm[pr[0]], perm[pr[1]]))
		}
	}
	return out
}

// forEachPermutation calls fn with every permutation of 0..k-1 (Heap's
// algorithm; the slice is reused across calls).
func forEachPermutation(k int, fn func([]int)) {
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	var rec func(int)
	rec = func(n int) {
		if n == 1 {
			fn(perm)
			return
		}
		for i := 0; i < n; i++ {
			rec(n - 1)
			if n%2 == 0 {
				perm[i], perm[n-1] = perm[n-1], perm[i]
			} else {
				perm[0], perm[n-1] = perm[n-1], perm[0]
			}
		}
	}
	rec(k)
}

// Enumerated is one census entry.
type Enumerated struct {
	Problem *lcl.Problem
	N2Mask  uint
	EMask   uint
	// Orbit is the number of raw (mask) problems isomorphic to this
	// representative, so that sums over representatives weighted by Orbit
	// recover the raw census.
	Orbit int
}

// CycleLCLs enumerates every input-free cycle LCL over a k-letter output
// alphabet. With dedup, one representative per label-isomorphism class is
// returned (with Orbit counts); otherwise all 4^PairCount(k) problems are
// returned in mask order.
func CycleLCLs(k int, dedup bool) []Enumerated {
	if k < 1 || k > 3 {
		// 4^10 = 1M raw problems at k = 4 is still enumerable but the
		// classifier cross-checks would dominate test time; the census
		// targets are k <= 3 as stated in DESIGN.md.
		panic(fmt.Sprintf("enumerate: k = %d out of supported range [1, 3]", k))
	}
	total := uint(1) << uint(PairCount(k))
	if !dedup {
		out := make([]Enumerated, 0, total*total)
		for n2 := uint(0); n2 < total; n2++ {
			for e := uint(0); e < total; e++ {
				out = append(out, Enumerated{Problem: FromMasks(k, n2, e), N2Mask: n2, EMask: e, Orbit: 1})
			}
		}
		return out
	}
	// Orbit-representative sweep: a mask pair is kept iff it is its own
	// orbit's canonical representative, so each isomorphism class is
	// materialized exactly once — no map, no per-pair canonical key.
	// Representatives appear in ascending (n2, e) order because the
	// canonical pair is the orbit's lexicographic minimum.
	tbl := canon.Orbits(k)
	var out []Enumerated
	for n2 := uint(0); n2 < total; n2++ {
		for e := uint(0); e < total; e++ {
			if !tbl.IsCanonicalPair(n2, e) {
				continue
			}
			out = append(out, Enumerated{
				Problem: FromMasks(k, n2, e),
				N2Mask:  n2,
				EMask:   e,
				Orbit:   tbl.PairOrbitSize(n2, e),
			})
		}
	}
	return out
}
