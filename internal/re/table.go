package re

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/lcl"
)

// table is a problem's constraints compiled to bitsets over its output
// labels. Every round elimination check runs on it rather than on the
// map-backed membership tests of lcl.Problem. A table is built once per
// problem (by compile, or by Apply for the problem it constructs) and is
// read-only afterwards, so concurrent pipelines share no mutable state.
type table struct {
	edge    []Set              // edge[a] = {b : {a,b} ∈ E}
	g       []Set              // g[in] = g(in)
	self    Set                // {a : {a,a} ∈ E}
	node    map[int]*nodeTable // one per degree listed in Node
	degrees []int              // the degrees listed in Node, ascending
}

// nodeTable is the degree-d node constraint as completion sets: for a
// sorted (d−1)-label prefix P, the labels x with P ∪ {x} ∈ Nᵈ.
type nodeTable struct {
	d       int
	configs []lcl.Multiset // Nᵈ as the problem lists it
	one     Set            // d = 1: completions of the empty prefix
	rows    []Set          // d = 2: rows[a] = completions of {a}
	comp    compTable      // d ≥ 3
}

// compile builds p's constraint table. It reads only p's exported
// constraint lists, never lcl.Problem's lazily built caches, so problems
// shared across goroutines stay read-only.
func compile(p *lcl.Problem) (*table, error) {
	L := p.NumOut()
	if L > MaxBaseLabels {
		return nil, fmt.Errorf("re: base alphabet %d exceeds %d", L, MaxBaseLabels)
	}
	t := &table{
		edge: make([]Set, L),
		g:    make([]Set, p.NumIn()),
		node: make(map[int]*nodeTable, len(p.Node)),
	}
	for _, m := range p.Edge {
		a, b := m[0], m[1]
		t.edge[a] = t.edge[a].Add(b)
		t.edge[b] = t.edge[b].Add(a)
	}
	for a, row := range t.edge {
		if row.Has(a) {
			t.self = t.self.Add(a)
		}
	}
	for in, outs := range p.G {
		for _, o := range outs {
			t.g[in] = t.g[in].Add(o)
		}
	}
	for d, list := range p.Node {
		t.node[d] = compileNode(d, list, L)
		t.degrees = append(t.degrees, d)
	}
	sort.Ints(t.degrees)
	return t, nil
}

func compileNode(d int, configs []lcl.Multiset, L int) *nodeTable {
	n := &nodeTable{d: d, configs: configs}
	switch {
	case d == 1:
		for _, m := range configs {
			n.one = n.one.Add(m[0])
		}
	case d == 2:
		n.rows = make([]Set, L)
		for _, m := range configs {
			n.rows[m[0]] = n.rows[m[0]].Add(m[1])
			n.rows[m[1]] = n.rows[m[1]].Add(m[0])
		}
	case d >= 3:
		n.comp = newCompTable(d-1, len(configs))
		prefix := make([]byte, 0, d-1)
		for _, m := range configs {
			for j, x := range m {
				if j > 0 && m[j-1] == x {
					continue // same prefix as the previous copy of x
				}
				prefix = prefix[:0]
				for k, y := range m {
					if k != j {
						prefix = append(prefix, byte(y))
					}
				}
				n.comp.add(prefix, x)
			}
		}
	}
	return n
}

// complete returns the completion set of a sorted (d−1)-label prefix.
func (n *nodeTable) complete(prefix []byte) Set {
	switch n.d {
	case 0, 1:
		return n.one
	case 2:
		return n.rows[prefix[0]]
	}
	return n.comp.get(prefix)
}

// completeOf returns the completion set of the (d−1) labels pick, in any
// order; only d ≥ 3 needs them sorted.
func (n *nodeTable) completeOf(s *selScratch, pick []byte) Set {
	if n.d >= 3 {
		pick = s.sortedKey(pick)
	}
	return n.complete(pick)
}

// compTable maps sorted prefixes of a fixed length to completion sets.
// A prefix is packed 6 bits per label, 10 labels to a uint64 word, and
// its words are the key of an open-addressed, linearly probed table; a
// slot whose set is empty is free, since no stored set is.
type compTable struct {
	words int      // key words per prefix
	keys  []uint64 // slot i's key is keys[i*words : (i+1)*words]
	sets  []Set
	count int
	shift uint // 64 − log2(len(sets))
}

// labelsPerWord is how many 6-bit labels a key word packs.
const labelsPerWord = 10

func newCompTable(length, hint int) compTable {
	size := 8
	for size < 2*hint {
		size *= 2
	}
	words := max(1, (length+labelsPerWord-1)/labelsPerWord)
	return compTable{
		words: words,
		keys:  make([]uint64, size*words),
		sets:  make([]Set, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
}

// keyWord packs the w-th group of labelsPerWord labels of prefix.
func keyWord(prefix []byte, w int) uint64 {
	var k uint64
	for _, x := range prefix[w*labelsPerWord : min(len(prefix), (w+1)*labelsPerWord)] {
		k = k<<6 | uint64(x)
	}
	return k
}

// find returns prefix's slot, or the free slot where it belongs.
func (c *compTable) find(prefix []byte) int {
	k0 := keyWord(prefix, 0)
	h := mixWord(0, k0)
	for w := 1; w < c.words; w++ {
		h = mixWord(h, keyWord(prefix, w))
	}
	mask := len(c.sets) - 1
	for i := firstSlot(h, c.shift); ; i = (i + 1) & mask {
		if c.sets[i] == 0 {
			return i
		}
		if key := c.keys[i*c.words : (i+1)*c.words]; key[0] == k0 {
			w := 1
			for w < c.words && key[w] == keyWord(prefix, w) {
				w++
			}
			if w == c.words {
				return i
			}
		}
	}
}

// get returns the completion set of a sorted prefix.
func (c *compTable) get(prefix []byte) Set {
	return c.sets[c.find(prefix)]
}

// add adds label x to the completion set of a sorted prefix.
func (c *compTable) add(prefix []byte, x int) {
	i := c.find(prefix)
	if c.sets[i] == 0 {
		if 2*(c.count+1) > len(c.sets) {
			c.grow()
			i = c.find(prefix)
		}
		for w := range c.words {
			c.keys[i*c.words+w] = keyWord(prefix, w)
		}
		c.count++
	}
	c.sets[i] = c.sets[i].Add(x)
}

// grow doubles the table and reinserts every prefix.
func (c *compTable) grow() {
	keys, sets := c.keys, c.sets
	c.keys = make([]uint64, 2*len(keys))
	c.sets = make([]Set, 2*len(sets))
	c.shift--
	mask := len(c.sets) - 1
	for j, set := range sets {
		if set == 0 {
			continue
		}
		key := keys[j*c.words : (j+1)*c.words]
		var h uint64
		for _, w := range key {
			h = mixWord(h, w)
		}
		i := firstSlot(h, c.shift)
		for c.sets[i] != 0 {
			i = (i + 1) & mask
		}
		copy(c.keys[i*c.words:], key)
		c.sets[i] = set
	}
}

// selScratch holds the buffers a degree-d selection walk reuses.
type selScratch struct {
	others []Set
	pick   []byte
	key    []byte
}

func newSelScratch(d int) *selScratch {
	return &selScratch{others: make([]Set, 0, d), pick: make([]byte, 0, d), key: make([]byte, d)}
}

// split returns the sets other than sets[k], in order.
func (s *selScratch) split(sets []Set, k int) []Set {
	s.others = append(append(s.others[:0], sets[:k]...), sets[k+1:]...)
	return s.others
}

// sortedKey returns pick's labels sorted, in s.key.
func (s *selScratch) sortedKey(pick []byte) []byte {
	key := s.key[:len(pick)]
	for i, x := range pick { // insertion sort: d is small
		j := i
		for ; j > 0 && key[j-1] > x; j-- {
			key[j] = key[j-1]
		}
		key[j] = x
	}
	return key
}

// meet returns keep ∩ ⋂ complete(P) over every selection P of one label
// from each set of others. It stops early, with a subset of the full
// answer, once the result has lost a bit of need or become empty.
func (n *nodeTable) meet(s *selScratch, others []Set, keep, need Set, pick []byte) Set {
	if len(pick) == len(others) {
		return keep & n.completeOf(s, pick)
	}
	for x := uint64(others[len(pick)]); x != 0; x &= x - 1 {
		keep = n.meet(s, others, keep, need, append(pick, byte(bits.TrailingZeros64(x))))
		if keep == 0 || keep&need != need {
			break
		}
	}
	return keep
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
// {a1..ad} ∈ Nᵈ: Definition 3.2's universal node constraint.
func (n *nodeTable) forAll(s *selScratch, sets []Set) bool {
	if n.d == 0 {
		return len(n.configs) > 0
	}
	k := largest(sets)
	return n.meet(s, s.split(sets, k), sets[k], sets[k], s.pick[:0]) == sets[k]
}

// exists reports whether some selection (a1..ad) ∈ A1 × … × Ad has
// {a1..ad} ∈ Nᵈ: Definition 3.1's existential node constraint.
func (n *nodeTable) exists(s *selScratch, sets []Set) bool {
	if n.d == 0 {
		return len(n.configs) > 0
	}
	k := largest(sets)
	return n.hits(s, s.split(sets, k), sets[k], s.pick[:0])
}
