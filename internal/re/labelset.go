// Package re implements the round elimination machinery of Section 3: the
// operators R(Π) and R̄(Π) (Definitions 3.1 and 3.2, in the paper's general
// form with input labels and irregular degrees), the 0-round solvability
// decision from the proof of Theorem 3.10, the algorithm lift of
// Lemma 3.9, iterated problem sequences with fixed-point detection, and
// the failure-probability bookkeeping of Theorem 3.4.
package re

import (
	"fmt"
	"math/bits"
)

// Set is a label set over a base alphabet of at most 63 labels, as a
// bitmask. The round elimination operators exponentiate alphabets; Set is
// the currency they trade in.
type Set uint64

// MaxBaseLabels is the largest base alphabet representable in a Set.
const MaxBaseLabels = 63

// SetOf builds a set from labels.
func SetOf(labels ...int) Set {
	var s Set
	for _, l := range labels {
		s |= 1 << uint(l)
	}
	return s
}

// Has reports membership.
func (s Set) Has(l int) bool { return s&(1<<uint(l)) != 0 }

// Add returns s ∪ {l}.
func (s Set) Add(l int) Set { return s | 1<<uint(l) }

// Count returns |s|.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether s is empty.
func (s Set) Empty() bool { return s == 0 }

// Subset reports s ⊆ t.
func (s Set) Subset(t Set) bool { return s&^t == 0 }

// Inter returns s ∩ t.
func (s Set) Inter(t Set) Set { return s & t }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Members returns the sorted elements of s.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for x := uint64(s); x != 0; x &= x - 1 {
		out = append(out, bits.TrailingZeros64(x))
	}
	return out
}

// String renders the set as {a,b,c} of label indices.
func (s Set) String() string {
	ms := s.Members()
	str := "{"
	for i, m := range ms {
		if i > 0 {
			str += ","
		}
		str += fmt.Sprintf("%d", m)
	}
	return str + "}"
}

// AllSubsets enumerates every nonempty subset of universe, invoking fn;
// enumeration stops if fn returns false.
func AllSubsets(universe Set, fn func(Set) bool) {
	// Standard subset-of-mask iteration, skipping the empty set.
	u := uint64(universe)
	for sub := u; sub != 0; sub = (sub - 1) & u {
		if !fn(Set(sub)) {
			return
		}
	}
}

// IntersectionClosure returns the family of all intersections of nonempty
// subcollections of the given sets (the image of the Galois map K, i.e.
// the closed sets of the edge-constraint closure used by pruned round
// elimination), deduplicated, with empty sets dropped.
func IntersectionClosure(rows []Set) []Set {
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
	// Close under pairwise intersection.
	for changed := true; changed; {
		changed = false
		// Iterate over a snapshot; new elements get processed next sweep.
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

// Multiset of label ids, sorted ascending, used for configurations over
// the *new* alphabet during construction (ids index the candidate list).
type idMultiset []int

// multisetsOf enumerates sorted multisets of the given size over ids
// 0..count-1, invoking fn for each. fn must not retain the slice.
func multisetsOf(count, size int, fn func(idMultiset)) {
	m := make(idMultiset, size)
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == size {
			fn(m)
			return
		}
		for v := min; v < count; v++ {
			m[pos] = v
			rec(pos+1, v)
		}
	}
	rec(0, 0)
}

// countMultisets returns C(count+size-1, size), the number of sorted
// multisets, saturating at a large sentinel to avoid overflow.
func countMultisets(count, size int) int {
	result := 1
	for i := 0; i < size; i++ {
		result *= count + i
		result /= i + 1
		if result > 1<<40 {
			return 1 << 40
		}
	}
	return result
}
