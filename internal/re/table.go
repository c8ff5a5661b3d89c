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

// findWord is find for a table whose prefixes take one key word k.
func (c *compTable) findWord(k uint64) int {
	mask := len(c.sets) - 1
	for i := firstSlot(mixWord(0, k), c.shift); ; i = (i + 1) & mask {
		if c.sets[i] == 0 || c.keys[i] == k {
			return i
		}
	}
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
	leaf   []byte
}

func newSelScratch(d int) *selScratch {
	labels := make([]byte, 3*d)
	return &selScratch{others: make([]Set, 0, d), pick: labels[:0:d], key: labels[d : 2*d : 2*d], leaf: labels[2*d:]}
}

// split returns the sets other than sets[k], in order.
func (s *selScratch) split(sets []Set, k int) []Set {
	s.others = append(append(s.others[:0], sets[:k]...), sets[k+1:]...)
	return s.others
}

// split2 returns the sets other than sets[k] and sets[l], in order.
func (s *selScratch) split2(sets []Set, k, l int) []Set {
	s.others = s.others[:0]
	for i, set := range sets {
		if i != k && i != l {
			s.others = append(s.others, set)
		}
	}
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

// leafKeys looks up the completion sets of pick ∪ {x} for the labels x of
// a walk's last coordinate, in ascending order. At d ≥ 3 pick is sorted,
// and packed, once; each x is then inserted into it.
type leafKeys struct {
	n      *nodeTable
	sorted []byte // pick, sorted
	key    []byte // room for a prefix of more than one key word
	word   uint64 // sorted packed, when a prefix takes one key word
	below  int    // labels of sorted below the last x looked up
}

// start readies l for the leaves of pick in n.
func (l *leafKeys) start(n *nodeTable, s *selScratch, pick []byte) {
	l.n, l.key, l.below = n, s.leaf, 0
	if n.d >= 3 {
		l.sorted = s.sortedKey(pick)
		if n.comp.words == 1 {
			l.word = keyWord(l.sorted, 0)
		}
	}
}

// complete returns the completion set of pick ∪ {x}; x must be at least
// the label of the previous call.
func (l *leafKeys) complete(x byte) Set {
	switch l.n.d {
	case 0, 1:
		return l.n.one
	case 2:
		return l.n.rows[x]
	}
	for l.below < len(l.sorted) && l.sorted[l.below] < x {
		l.below++
	}
	if l.n.comp.words == 1 {
		shift := 6 * uint(len(l.sorted)-l.below)
		return l.n.comp.sets[l.n.comp.findWord(l.word>>shift<<(shift+6)|uint64(x)<<shift|l.word&(1<<shift-1))]
	}
	key := l.key[:len(l.sorted)+1]
	copy(key, l.sorted[:l.below])
	key[l.below] = x
	copy(key[l.below+1:], l.sorted[l.below:])
	return l.n.comp.get(key)
}

// meet returns keep ∩ ⋂ complete(pick ∪ P) over every selection P of one
// label from each set of others. It stops early, with a subset of the
// full answer, once the result has lost a bit of need or become empty.
func (n *nodeTable) meet(s *selScratch, others []Set, keep, need Set, pick []byte) Set {
	switch len(others) {
	case 0:
		return keep & n.completeOf(s, pick)
	case 1:
		var l leafKeys
		l.start(n, s, pick)
		for x := uint64(others[0]); x != 0; x &= x - 1 {
			keep &= l.complete(byte(bits.TrailingZeros64(x)))
			if keep == 0 || keep&need != need {
				break
			}
		}
		return keep
	}
	for x := uint64(others[0]); x != 0; x &= x - 1 {
		keep = n.meet(s, others[1:], keep, need, append(pick, byte(bits.TrailingZeros64(x))))
		if keep == 0 || keep&need != need {
			break
		}
	}
	return keep
}

// join returns have ∪ ⋃ complete(pick ∪ P) over every selection P of one
// label from each set of others. It stops early, with a subset of the
// full answer, once the result holds all of want.
func (n *nodeTable) join(s *selScratch, others []Set, have, want Set, pick []byte) Set {
	switch len(others) {
	case 0:
		return have | n.completeOf(s, pick)
	case 1:
		var l leafKeys
		l.start(n, s, pick)
		for x := uint64(others[0]); x != 0; x &= x - 1 {
			have |= l.complete(byte(bits.TrailingZeros64(x)))
			if have&want == want {
				break
			}
		}
		return have
	}
	for x := uint64(others[0]); x != 0; x &= x - 1 {
		have = n.join(s, others[1:], have, want, append(pick, byte(bits.TrailingZeros64(x))))
		if have&want == want {
			break
		}
	}
	return have
}
