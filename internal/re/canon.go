package re

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lcl"
)

// Problem isomorphism up to renaming of *output* labels (input labels are
// fixed — they are shared across the whole round elimination sequence).
// Used for fixed-point/cycle detection in iterated R̄∘R: reaching a problem
// isomorphic to an earlier one proves the sequence never becomes 0-round
// solvable, which (by Theorem 3.10's contrapositive) certifies an
// Ω(log* n) lower bound for the original problem.

// labelSignatures computes a renaming-invariant signature per output
// label, refined iteratively (1-dimensional Weisfeiler–Leman over the
// constraint structure).
func labelSignatures(p *lcl.Problem, t *table, rounds int) []string {
	L := p.NumOut()
	sig := make([]string, L)
	var b strings.Builder
	// Initial: g-membership vector + self-loop flag.
	for o := 0; o < L; o++ {
		b.Reset()
		for _, gm := range t.g {
			if gm.Has(o) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		if t.self.Has(o) {
			b.WriteByte('S')
		}
		sig[o] = b.String()
	}
	next := make([]string, L)
	nodes := make([][]string, L)
	classes := make([]string, L)
	var edges, members []string
	for r := 0; r < rounds; r++ {
		// Node configuration contexts: each config contributes, to every
		// label o it contains, its degree, o's multiplicity and the sorted
		// signatures of all its members.
		for o := range nodes {
			nodes[o] = nodes[o][:0]
		}
		for _, d := range t.degrees {
			for _, m := range p.Node[d] {
				members = members[:0]
				for _, x := range m {
					members = append(members, sig[x])
				}
				sort.Strings(members)
				b.Reset()
				writeList(&b, members)
				ctx := b.String()
				for j, o := range m {
					if slices.Contains(m[:j], o) {
						continue
					}
					count := 0
					for _, x := range m[j:] {
						if x == o {
							count++
						}
					}
					nodes[o] = append(nodes[o], "d"+strconv.Itoa(d)+"#"+strconv.Itoa(count)+":"+ctx)
				}
			}
		}
		for o := 0; o < L; o++ {
			// Edge neighborhood multiset.
			edges = edges[:0]
			for x := uint64(t.edge[o]); x != 0; x &= x - 1 {
				edges = append(edges, sig[bits.TrailingZeros64(x)])
			}
			sort.Strings(edges)
			sort.Strings(nodes[o])
			b.Reset()
			b.WriteString(sig[o])
			b.WriteString("|E")
			writeList(&b, edges)
			b.WriteString("|N")
			writeList(&b, nodes[o])
			next[o] = b.String()
		}
		// Compress to keep strings short. Class ids are assigned in sorted
		// string order so they are canonical across problems (required for
		// Isomorphic's cross-problem signature matching).
		copy(classes, next)
		sort.Strings(classes)
		uniq := slices.Compact(classes)
		for o := range next {
			id, _ := slices.BinarySearch(uniq, next[o])
			sig[o] = strconv.Itoa(id)
		}
	}
	return sig
}

// writeList writes strs as fmt prints a []string: "[a b c]".
func writeList(b *strings.Builder, strs []string) {
	b.WriteByte('[')
	for i, s := range strs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s)
	}
	b.WriteByte(']')
}

// intList renders ints as fmt prints an []int: "[1 2 3]".
func intList(buf []byte, ints []int) string {
	buf = append(buf[:0], '[')
	for i, x := range ints {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return string(append(buf, ']'))
}

// Canonical returns a canonical string for the problem under output-label
// renaming, suitable for fixed-point detection. It canonicalizes greedily
// by refined signature with deterministic tie-breaking, then renders all
// constraints under the resulting relabeling; problems with equal
// canonical strings are isomorphic for all practical battery cases, and
// Isomorphic double-checks with an exact search. A problem over more than
// MaxBaseLabels output labels has no canonical form here: Canonical
// returns "" for it, and Isomorphic reports it isomorphic to nothing.
func Canonical(p *lcl.Problem) string {
	t, err := compile(p)
	if err != nil {
		return ""
	}
	return canonical(p, t)
}

// canonical is Canonical on p's compiled table.
func canonical(p *lcl.Problem, t *table) string {
	L := p.NumOut()
	sig := labelSignatures(p, t, 3)
	order := make([]int, L)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if sig[order[i]] != sig[order[j]] {
			return sig[order[i]] < sig[order[j]]
		}
		return order[i] < order[j]
	})
	rename := make([]int, L)
	for newID, old := range order {
		rename[old] = newID
	}
	return renderRenamed(p, t, rename)
}

// renderRenamed renders p's constraints under rename, each list sorted:
// "L<n>|[N<d>:[[a b] …] … E:[(a,b) …] g<in>:[a b …] …]".
func renderRenamed(p *lcl.Problem, t *table, rename []int) string {
	var b strings.Builder
	var buf []byte
	var r []int
	b.WriteString("L")
	b.WriteString(strconv.Itoa(p.NumOut()))
	b.WriteString("|[")
	var strs []string
	for _, d := range t.degrees {
		strs = strs[:0]
		for _, m := range p.Node[d] {
			r = r[:0]
			for _, x := range m {
				r = append(r, rename[x])
			}
			sort.Ints(r)
			strs = append(strs, intList(buf, r))
		}
		sort.Strings(strs)
		b.WriteString("N")
		b.WriteString(strconv.Itoa(d))
		b.WriteString(":")
		writeList(&b, strs)
		b.WriteByte(' ')
	}
	strs = strs[:0]
	for _, m := range p.Edge {
		a, c := rename[m[0]], rename[m[1]]
		if a > c {
			a, c = c, a
		}
		buf = append(buf[:0], '(')
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(c), 10)
		strs = append(strs, string(append(buf, ')')))
	}
	sort.Strings(strs)
	b.WriteString("E:")
	writeList(&b, strs)
	for in, gm := range t.g {
		r = r[:0]
		for x := uint64(gm); x != 0; x &= x - 1 {
			r = append(r, rename[bits.TrailingZeros64(x)])
		}
		sort.Ints(r)
		b.WriteString(" g")
		b.WriteString(strconv.Itoa(in))
		b.WriteString(":")
		b.WriteString(intList(buf, r))
	}
	b.WriteByte(']')
	return b.String()
}

// isoBudget bounds the backtracking search; problems whose symmetry
// groups blow past it are reported non-isomorphic, which is the safe
// direction for cycle detection (a missed cycle only yields an
// inconclusive pipeline verdict, never a wrong certificate).
const isoBudget = 2_000_000

// Isomorphic decides whether two problems are equal up to output label
// renaming (inputs fixed), by signature-pruned backtracking with a node
// budget. Within the budget the answer is exact.
func Isomorphic(a, b *lcl.Problem) bool {
	ta, err := compile(a)
	if err != nil {
		return false
	}
	tb, err := compile(b)
	if err != nil {
		return false
	}
	return isomorphic(a, ta, b, tb)
}

// isomorphic is Isomorphic on the problems' compiled tables.
func isomorphic(a *lcl.Problem, ta *table, b *lcl.Problem, tb *table) bool {
	if a.NumOut() != b.NumOut() || a.NumIn() != b.NumIn() {
		return false
	}
	L := a.NumOut()
	// Deep signature refinement (L rounds reaches the stable partition);
	// the finer the classes, the smaller the backtracking branching.
	rounds := 3
	if L > 8 {
		rounds = 6
	}
	sa := labelSignatures(a, ta, rounds)
	sb := labelSignatures(b, tb, rounds)
	// Signature multisets must match.
	ca := append([]string(nil), sa...)
	cb := append([]string(nil), sb...)
	sort.Strings(ca)
	sort.Strings(cb)
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	bTarget := renderRenamed(b, tb, identity(L))
	perm := make([]int, L)
	used := make([]bool, L)
	for i := range perm {
		perm[i] = -1
	}
	budget := isoBudget
	var rec func(i int) bool
	rec = func(i int) bool {
		if budget <= 0 {
			return false
		}
		budget--
		if i == L {
			return renderRenamed(a, ta, perm) == bTarget
		}
		for j := 0; j < L; j++ {
			if used[j] || sa[i] != sb[j] {
				continue
			}
			// Local consistency: g and edge rows must match under the
			// partial mapping.
			if !consistent(ta, tb, perm, i, j) {
				continue
			}
			perm[i] = j
			used[j] = true
			if rec(i + 1) {
				return true
			}
			perm[i] = -1
			used[j] = false
		}
		return false
	}
	return rec(0)
}

func identity(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

func consistent(a, b *table, perm []int, i, j int) bool {
	for in := range a.g {
		if a.g[in].Has(i) != b.g[in].Has(j) {
			return false
		}
	}
	if a.self.Has(i) != b.self.Has(j) {
		return false
	}
	for k, pk := range perm {
		if pk < 0 || k == i {
			continue
		}
		if a.edge[i].Has(k) != b.edge[j].Has(pk) {
			return false
		}
	}
	return true
}
