package re

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/lcl"
)

// Op selects the round elimination operator.
type Op int

// The two operators of Definitions 3.1 and 3.2.
const (
	OpR    Op = iota // R(Π): node constraint existential, edge universal
	OpRBar           // R̄(Π): node constraint universal, edge existential
)

func (o Op) String() string {
	if o == OpR {
		return "R"
	}
	return "R̄"
}

// Mode selects the label-universe generation strategy.
type Mode int

const (
	// Faithful enumerates every nonempty subset of the base alphabet as a
	// candidate label — Definitions 3.1/3.2 verbatim (minus the empty set,
	// which can never appear in a valid solution: it breaks the existential
	// node constraint of R and the g-constraint downstream). Feasible only
	// for small base alphabets.
	Faithful Mode = iota
	// Pruned restricts candidate labels to those that can appear in
	// maximal configurations of the universal-side constraint (the closure
	// family of the edge constraint for R; coordinates of maximal
	// universal node configurations for R̄), each additionally intersected
	// with every g(in). Restricting to these labels preserves solvability
	// and complexity: in R, any solution label B can be replaced by
	// K(K(B)) ∩ g(in) ⊇ B (universal edge constraints are closed downward,
	// existential node constraints upward); dually for R̄. This is the
	// standard round-eliminator simplification, adapted to inputs.
	Pruned
)

// Limits bounds construction work; zero values select defaults.
type Limits struct {
	MaxLabels     int // candidate alphabet cap (default 63, hard cap 63)
	MaxConfigs    int // per-degree configuration enumeration cap (default 2M)
	MaxExpandIter int // BFS states for maximal-config search (default 200k)
}

func (l Limits) withDefaults() Limits {
	if l.MaxLabels == 0 || l.MaxLabels > MaxBaseLabels {
		l.MaxLabels = MaxBaseLabels
	}
	if l.MaxConfigs == 0 {
		l.MaxConfigs = 2_000_000
	}
	if l.MaxExpandIter == 0 {
		l.MaxExpandIter = 200_000
	}
	return l
}

// Step is one application of R or R̄: the constructed problem plus the
// meaning of each of its output labels as a set of parent-problem labels.
type Step struct {
	Op      Op
	Prob    *lcl.Problem
	Meaning []Set // Meaning[newLabel] = set of parent output labels

	tab *table // Prob's constraint table, reused when Prob is the next base
}

// Apply constructs R(base) or R̄(base) per Definitions 3.1/3.2.
func Apply(base *lcl.Problem, op Op, mode Mode, lim Limits) (*Step, error) {
	tab, err := compile(base)
	if err != nil {
		return nil, err
	}
	return apply(base, tab, op, mode, lim)
}

// apply is Apply on base's compiled table.
func apply(base *lcl.Problem, tab *table, op Op, mode Mode, lim Limits) (*Step, error) {
	lim = lim.withDefaults()
	L := base.NumOut()
	full := Set(1)<<uint(L) - 1

	// 1. Candidate labels.
	var cand []Set
	switch mode {
	case Faithful:
		if L > 16 {
			return nil, fmt.Errorf("re: faithful mode needs base alphabet <= 16, got %d", L)
		}
		AllSubsets(full, func(s Set) bool {
			cand = append(cand, s)
			return true
		})
		slices.Sort(cand)
	case Pruned:
		seeds, err := prunedSeeds(tab, op, full, lim)
		if err != nil {
			return nil, err
		}
		var seen setTable
		add := func(s Set) {
			if seen.add(s) {
				cand = append(cand, s)
			}
		}
		for _, s := range seeds {
			add(s)
			for _, gm := range tab.g {
				add(s.Inter(gm))
			}
		}
		slices.Sort(cand)
	}
	if len(cand) > lim.MaxLabels {
		return nil, fmt.Errorf("re: %s produced %d candidate labels (cap %d); use Pruned mode or a smaller problem", op, len(cand), lim.MaxLabels)
	}

	// 2. Constraints over the candidate alphabet.
	newProb := &lcl.Problem{
		Name:    op.String() + "(" + base.Name + ")",
		InNames: append([]string(nil), base.InNames...),
		Node:    map[int][]lcl.Multiset{},
	}
	newProb.OutNames = make([]string, len(cand))
	for i, s := range cand {
		newProb.OutNames[i] = setName(s, base)
	}
	var slab multisetSlab

	// Edge constraint. R's is universal: {A,B} is allowed iff B lies in
	// the labels compatible with every a ∈ A. R̄'s is existential: iff B
	// meets the labels compatible with some a ∈ A.
	for i, a := range cand {
		withAll, withSome := full, Set(0)
		for x := uint64(a); x != 0; x &= x - 1 {
			row := tab.edge[bits.TrailingZeros64(x)]
			withAll &= row
			withSome |= row
		}
		for j := i; j < len(cand); j++ {
			b := cand[j]
			if (op == OpR && b.Subset(withAll)) || (op == OpRBar && !b.Inter(withSome).Empty()) {
				newProb.Edge = append(newProb.Edge, slab.add(i, j))
			}
		}
	}

	// Node constraints per degree: existential for R, universal for R̄.
	for _, d := range tab.degrees {
		if cm := countMultisets(len(cand), d); cm > lim.MaxConfigs {
			return nil, fmt.Errorf("re: %s degree-%d enumeration needs %d configs (cap %d)", op, d, cm, lim.MaxConfigs)
		}
		configs := nodeConfigs(tab.node[d], cand, op, full, &slab)
		if len(configs) > 0 {
			newProb.Node[d] = configs
		}
	}

	// g: g_new(in) = { B in cand : B ⊆ g_base(in) }.
	newProb.G = make([][]int, base.NumIn())
	for in := range newProb.G {
		for i, s := range cand {
			if s.Subset(tab.g[in]) {
				newProb.G[in] = append(newProb.G[in], i)
			}
		}
	}
	if err := newProb.Validate(); err != nil {
		return nil, fmt.Errorf("re: constructed problem invalid: %w", err)
	}
	newTab, err := compile(newProb)
	if err != nil {
		return nil, err
	}
	return &Step{Op: op, Prob: newProb, Meaning: cand, tab: newTab}, nil
}

// nodeConfigs returns the degree-d node constraint over the candidate
// labels, in the order multisetsOf lists the multisets: existential for R
// (some selection lies in Nᵈ), universal for R̄ (every selection does).
// Each (d−1)-label prefix is walked once for its cover, the labels that
// complete some selection of it (R) or every one (R̄); a last label
// extends the prefix iff it meets the cover (R) or lies in it (R̄).
func nodeConfigs(n *nodeTable, cand []Set, op Op, full Set, slab *multisetSlab) []lcl.Multiset {
	d := n.d
	if d == 0 {
		if len(n.configs) == 0 {
			return nil
		}
		return []lcl.Multiset{slab.add()}
	}
	sc := newSelScratch(d)
	sets := make([]Set, d-1)
	m := make([]int, d)
	var configs []lcl.Multiset
	multisetsOf(len(cand), d-1, func(prefix idMultiset) {
		for k, id := range prefix {
			sets[k] = cand[id]
		}
		var cover Set
		if op == OpR {
			cover = n.join(sc, sets, 0, full, sc.pick[:0])
		} else {
			cover = n.meet(sc, sets, full, 0, sc.pick[:0])
		}
		copy(m, prefix)
		first := 0
		if d > 1 {
			first = prefix[d-2]
		}
		for id := first; id < len(cand); id++ {
			if (op == OpR && cand[id]&cover != 0) || (op == OpRBar && cand[id]&^cover == 0) {
				m[d-1] = id
				configs = append(configs, slab.add(m...))
			}
		}
	})
	return configs
}

// multisetSlab carves multisets out of shared chunks: one allocation per
// chunk instead of one per configuration. Chunks are never reused, so the
// multisets it returns stay valid.
type multisetSlab struct{ buf []int }

func (s *multisetSlab) add(labels ...int) lcl.Multiset {
	if cap(s.buf)-len(s.buf) < len(labels) {
		s.buf = make([]int, 0, max(2*cap(s.buf), 64*len(labels)))
	}
	start := len(s.buf)
	s.buf = append(s.buf, labels...)
	return lcl.Multiset(s.buf[start:len(s.buf):len(s.buf)])
}

// prunedSeeds returns the candidate-label seeds for Pruned mode.
func prunedSeeds(tab *table, op Op, full Set, lim Limits) ([]Set, error) {
	if op == OpR {
		// Edge constraint is universal: the closed sets of the Galois map
		// K(B) = { c : ∀ b ∈ B, {b,c} ∈ E } form the seed family. The image
		// of K is exactly the intersection closure of the compatibility
		// rows.
		return IntersectionClosure(tab.edge), nil
	}
	// R̄: node constraint is universal. Seeds are the coordinate sets of
	// maximal configurations {A1,...,Ad} with A1 × ... × Ad ⊆ N^d,
	// enumerated by a search grown from the base configurations. Degrees
	// run in ascending order so an exhausted budget always names the
	// same degree.
	var seen setTable
	var seeds []Set
	for _, d := range tab.degrees {
		maxCfgs, err := maximalUniversalNodeConfigs(tab.node[d], full, lim)
		if err != nil {
			return nil, err
		}
		for _, cfg := range maxCfgs {
			for _, s := range cfg {
				if seen.add(s) {
					seeds = append(seeds, s)
				}
			}
		}
	}
	return seeds, nil
}

// maximalUniversalNodeConfigs enumerates the maximal (componentwise, as
// sorted multisets of sets) configurations [A1..Ad] with every selection in
// Nᵈ. It is a reverse search (Avis and Fukuda): it keeps every
// configuration sorted by Set value, and gives each one with a coordinate
// of two or more labels one parent, itself minus the highest label of its
// largest such coordinate. Walking that tree of parents from its roots, the
// distinct singleton configurations of Nᵈ, pops every universal
// configuration exactly once, so the search needs no record of the
// configurations it has seen. The walk is depth-first; lim.MaxExpandIter
// bounds the configurations it pops.
//
// Each configuration carries, per coordinate i, the set K_i of labels that
// complete every selection of the other coordinates: adding x at i keeps
// it universal iff x ∈ K_i. A child cfg + x@i inherits K_i and narrows
// every other K_j to the labels that also complete the selections with x
// at coordinate i, so no configuration's sets are recomputed whole.
func maximalUniversalNodeConfigs(n *nodeTable, full Set, lim Limits) ([][]Set, error) {
	d := n.d
	if d == 1 {
		return maximalDegreeOne(n.one, lim)
	}
	sc := newSelScratch(d)
	cfg := make([]Set, 3*d)
	cfg, ks, next := cfg[:d:d], cfg[d:2*d:2*d], cfg[2*d:]
	// The stack holds 2d sets per configuration, its coordinates and then
	// their K sets. Each root's tree is walked to the end before the next
	// root starts, last root first, as if all roots had been pushed at
	// the outset; the roots are sorted, since each multiset of Nᵈ is. A
	// walk's frontier seldom outgrows room for half as many
	// configurations as there are roots.
	roots := distinctSorted(n.configs)
	stack := make([]Set, 0, d*len(roots))
	var maximal []Set // d sets per maximal configuration
	nmax, pops := 0, 0
	for r := len(roots) - 1; r >= 0; r-- {
		for i, a := range roots[r] {
			cfg[i] = SetOf(a)
		}
		for i := range ks {
			ks[i] = n.meet(sc, sc.split(cfg, i), full, 0, sc.pick[:0])
		}
		stack = append(append(stack, cfg...), ks...)
		// queued is counted rather than len(stack)/2d, which fails at d = 0.
		for queued := 1; queued > 0; queued-- {
			if pops++; pops > lim.MaxExpandIter {
				return nil, fmt.Errorf("re: maximal-config search exceeded %d states at degree %d", lim.MaxExpandIter, d)
			}
			base := len(stack) - 2*d
			copy(cfg, stack[base:])
			copy(ks, stack[base+d:])
			stack = stack[:base]
			// top is cfg's largest coordinate of two or more labels; cfg is
			// sorted, so it is the last one.
			var top Set
			for _, s := range cfg {
				if s&(s-1) != 0 {
					top = s
				}
			}
			expanded := false
			for i, s := range cfg {
				if i > 0 && s == cfg[i-1] {
					continue // equal coordinates grow alike
				}
				grow := ks[i] &^ s
				if grow == 0 {
					continue
				}
				expanded = true
				// cfg is the parent of cfg + x@i iff x lies above s's highest
				// label and s ∪ {x} is at least top.
				high := uint(bits.Len64(uint64(s)))
				for x := uint64(grow) >> high << high; x != 0; x &= x - 1 {
					label := bits.TrailingZeros64(x)
					grown := s.Add(label)
					if grown < top {
						continue
					}
					for j := range next {
						switch {
						case j == i:
							next[j] = ks[i]
						case d == 2:
							next[j] = ks[j] & n.rows[label]
						case j > 0 && j-1 != i && cfg[j] == cfg[j-1]:
							next[j] = next[j-1] // equal coordinates narrow alike
						default:
							// cfg[j] ⊆ K_j stays so: narrow only the rest,
							// which stops as soon as none of it is left.
							next[j] = cfg[j] | n.meet(sc, sc.split2(cfg, i, j), ks[j]&^cfg[j], 0, append(sc.pick[:0], byte(label)))
						}
					}
					// Push cfg + x@i, moving grown and its K set right to keep
					// the coordinates sorted.
					stack = append(append(stack, cfg...), next...)
					child := stack[len(stack)-2*d:]
					childK := child[d:]
					j := i
					for ; j+1 < d && child[j+1] < grown; j++ {
						child[j], childK[j] = child[j+1], childK[j+1]
					}
					child[j], childK[j] = grown, ks[i]
					queued++
				}
			}
			if !expanded {
				maximal = append(maximal, cfg...)
				nmax++
			}
		}
	}
	out := make([][]Set, nmax)
	for j := range out {
		out[j] = maximal[j*d : (j+1)*d : (j+1)*d]
	}
	return out, nil
}

// maximalDegreeOne is the degree-1 search in closed form. Every label of
// one completes the empty prefix, so from the singletons of one the search
// pops each nonempty subset of one exactly once, 2^|one| − 1 states, and
// only one itself cannot grow.
func maximalDegreeOne(one Set, lim Limits) ([][]Set, error) {
	if one.Empty() {
		return nil, nil
	}
	if states := uint64(1)<<uint(one.Count()) - 1; lim.MaxExpandIter < 0 || states > uint64(lim.MaxExpandIter) {
		return nil, fmt.Errorf("re: maximal-config search exceeded %d states at degree %d", lim.MaxExpandIter, 1)
	}
	return [][]Set{{one}}, nil
}

// distinctSorted returns configs in lexicographic order without repeats:
// configs itself when it already is, as the problems apply builds are,
// else a sorted copy.
func distinctSorted(configs []lcl.Multiset) []lcl.Multiset {
	for i := 1; i < len(configs); i++ {
		if slices.Compare(configs[i-1], configs[i]) >= 0 {
			sorted := slices.Clone(configs)
			slices.SortFunc(sorted, slices.Compare[lcl.Multiset])
			return slices.CompactFunc(sorted, slices.Equal[lcl.Multiset])
		}
	}
	return configs
}

// setName renders a new label's meaning with base label names.
func setName(s Set, base *lcl.Problem) string {
	size := 1 + s.Count() // brackets and separators
	for x := uint64(s); x != 0; x &= x - 1 {
		size += len(base.OutNames[bits.TrailingZeros64(x)])
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('[')
	for x := uint64(s); x != 0; x &= x - 1 {
		if x != uint64(s) {
			b.WriteByte(' ')
		}
		b.WriteString(base.OutNames[bits.TrailingZeros64(x)])
	}
	b.WriteByte(']')
	return b.String()
}
