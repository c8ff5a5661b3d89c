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
	var seen setTable
	var family []Set
	for _, r := range rows {
		// family holds every intersection of the earlier rows, so every
		// new one is r itself or r ∩ f for a member f. If r is already a
		// member, r ∩ f is too.
		n := len(family)
		if !seen.add(r) {
			continue
		}
		family = append(family, r)
		for _, f := range family[:n] {
			if c := f & r; seen.add(c) {
				family = append(family, c)
			}
		}
	}
	return family
}

// setTable is a set of nonempty Sets: an open-addressed, linearly probed
// table in which 0 marks an empty slot. The zero value is empty.
type setTable struct {
	slots []Set
	count int
	shift uint // 64 − log2(len(slots))
}

// add adds s unless it is empty or present, and reports whether it did.
func (t *setTable) add(s Set) bool {
	if s == 0 {
		return false
	}
	if 2*(t.count+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := firstSlot(mixWord(0, uint64(s)), t.shift); ; i = (i + 1) & mask {
		switch t.slots[i] {
		case 0:
			t.slots[i] = s
			t.count++
			return true
		case s:
			return false
		}
	}
}

// grow doubles the table, from 8 slots, and reinserts every set.
func (t *setTable) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]Set, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s != 0 {
			i := firstSlot(mixWord(0, uint64(s)), t.shift)
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// mixWord folds a word into a hash.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// firstSlot returns the slot of a table of 2^(64−shift) slots at which
// probing for hash h starts: the top bits of a last mix, which depend on
// every bit of h.
func firstSlot(h uint64, shift uint) int {
	return int(h * 0x9e3779b97f4a7c15 >> shift)
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
