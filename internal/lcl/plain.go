package lcl

import (
	"slices"
	"unicode"
	"unicode/utf8"

	"repro/internal/jsonscan"
)

// The keys of the symbolic codec's problem object, indexed as in
// plainDecoder.at.
const (
	keyName = iota
	keyIn
	keyOut
	keyNode
	keyEdge
	keyG
	numKeys
)

var plainKeys = [numKeys]string{"name", "in_alphabet", "out_alphabet", "node_constraints", "edge_constraints", "g"}

// maxPlainKeys bounds the size of each alphabet and the number of keys
// of node_constraints and of g on the fast path. Labels are resolved by
// a linear scan of their alphabet and keys are checked for duplicates
// against the earlier ones, so the bound keeps the fast path linear in
// the input. Larger problems, which round elimination cannot table
// anyway (internal/re takes at most 63 labels), take the encoding/json
// path.
const maxPlainKeys = 64

// ParsePlain decodes a problem written in the plain shape of the
// symbolic JSON codec — the shape MarshalJSON writes, in any key order
// and with any JSON whitespace — by scanning data directly, without
// reflection. It reports false on anything outside that shape
// (escapes, unknown, duplicate or case-variant keys, null, degree keys
// that are not plain decimals, trailing bytes; see package jsonscan),
// on alphabets or key sets larger than maxPlainKeys, and on any syntax
// or semantic error; UnmarshalJSON then runs the encoding/json decoder
// on the same bytes, which is the only path for those inputs and the
// one that reports errors. The problem shares no
// memory with data: its names are substrings of one copy of it.
func ParsePlain(data []byte) (*Problem, bool) {
	p := new(Problem)
	if !parsePlain(data, p) {
		return nil, false
	}
	return p, true
}

// parsePlain is ParsePlain into *p, which it writes only on success.
func parsePlain(data []byte, p *Problem) bool {
	d := plainDecoder{sc: jsonscan.Scanner{Data: data}, s: string(data)}
	if !d.scan() {
		return false
	}
	q, ok := d.build()
	if !ok || q.Validate() != nil {
		return false
	}
	*p = q
	return true
}

// plainDecoder makes two passes over the input. The first checks the
// shape, rejects duplicate keys, records where each key's value starts,
// and counts names, configurations and labels; the second resolves
// labels in dependency order (alphabets first, whatever the key order)
// and checks configuration sizes, cutting every name from one string
// copy of the input and every multiset from one []int slab.
type plainDecoder struct {
	sc jsonscan.Scanner
	s  string // the copy of sc.Data names are cut from
	// at[k] is the offset of key k's value; 0 (the object's opening
	// brace) when the key is absent.
	at [numKeys]int

	nIn, nOut, nNode, nEdge, nLabels int
}

func (d *plainDecoder) scan() bool {
	sc := &d.sc
	ok := sc.Object(func(ks, ke int) bool {
		k := slices.Index(plainKeys[:], d.s[ks:ke])
		if k < 0 || d.at[k] != 0 {
			return false
		}
		sc.Peek()
		d.at[k] = sc.Pos
		switch k {
		case keyName:
			_, _, ok := sc.String()
			return ok
		case keyIn:
			return d.countNames(&d.nIn) && d.nIn <= maxPlainKeys
		case keyOut:
			return d.countNames(&d.nOut) && d.nOut <= maxPlainKeys
		case keyNode:
			return d.scanNode()
		case keyEdge:
			return sc.Array(func() bool {
				d.nEdge++
				d.nLabels += 2
				return d.countConfig(2)
			})
		default:
			return d.scanG()
		}
	})
	return ok && sc.End()
}

// countNames consumes an array of names into *n.
func (d *plainDecoder) countNames(n *int) bool {
	return d.sc.Array(func() bool {
		*n++
		_, _, ok := d.sc.String()
		return ok
	})
}

// countConfig consumes one configuration string that is to hold size
// labels. It checks only that the string is long enough to, which
// bounds the label slab by the input length; build counts the labels.
func (d *plainDecoder) countConfig(size int) bool {
	a, b, ok := d.sc.String()
	return ok && size <= (b-a+1)/2
}

// scanNode consumes node_constraints: at most maxPlainKeys distinct
// plain-decimal degree keys, each listing configurations of that many
// labels.
func (d *plainDecoder) scanNode() bool {
	var buf [8]int
	degrees := buf[:0]
	sc := &d.sc
	return sc.Object(func(ks, ke int) bool {
		deg, ok := jsonscan.Uint(sc.Data[ks:ke])
		if !ok || len(degrees) == maxPlainKeys {
			return false
		}
		for _, seen := range degrees {
			if seen == deg {
				return false
			}
		}
		degrees = append(degrees, deg)
		return sc.Array(func() bool {
			d.nNode++
			d.nLabels += deg
			return d.countConfig(deg)
		})
	})
}

// scanG consumes g: at most maxPlainKeys distinct input-label keys,
// each listing output labels.
func (d *plainDecoder) scanG() bool {
	var buf [8]string
	keys := buf[:0]
	sc := &d.sc
	return sc.Object(func(ks, ke int) bool {
		key := d.s[ks:ke]
		if len(keys) == maxPlainKeys {
			return false
		}
		for _, seen := range keys {
			if seen == key {
				return false
			}
		}
		keys = append(keys, key)
		return d.countNames(&d.nLabels)
	})
}

// build is the second pass; the first has checked the shape, so only
// label resolution and configuration sizes can fail here.
func (d *plainDecoder) build() (Problem, bool) {
	sc, s := &d.sc, d.s
	p := Problem{Node: make(map[int][]Multiset)}
	names := make([]string, d.nIn+d.nOut)
	slab := make([]int, 0, d.nLabels)
	sets := make([]Multiset, 0, d.nNode+d.nEdge)
	if d.at[keyIn] != 0 {
		p.InNames = d.names(keyIn, names[:0:d.nIn])
	}
	if d.at[keyOut] != 0 {
		p.OutNames = d.names(keyOut, names[d.nIn:d.nIn])
	}
	if sc.Pos = d.at[keyName]; sc.Pos != 0 {
		a, b, _ := sc.String()
		p.Name = s[a:b]
	}
	// config appends one configuration of size labels to sets.
	size := 0
	config := func() bool {
		a, b, _ := sc.String()
		start := len(slab)
		for fa, fb := nextField(s, a, b); fa < fb; fa, fb = nextField(s, fb, b) {
			x := lookup(p.OutNames, s[fa:fb])
			if x < 0 {
				return false
			}
			slab = append(slab, x)
		}
		if len(slab)-start != size {
			return false
		}
		m := Multiset(slab[start:len(slab):len(slab)])
		slices.Sort(m)
		sets = append(sets, m)
		return true
	}
	if sc.Pos = d.at[keyNode]; sc.Pos != 0 {
		ok := sc.Object(func(ks, ke int) bool {
			size, _ = jsonscan.Uint(sc.Data[ks:ke])
			first := len(sets)
			if !sc.Array(config) {
				return false
			}
			if len(sets) > first {
				p.Node[size] = sets[first:len(sets):len(sets)]
			}
			return true
		})
		if !ok {
			return p, false
		}
	}
	if sc.Pos = d.at[keyEdge]; sc.Pos != 0 {
		size = 2
		first := len(sets)
		if !sc.Array(config) {
			return p, false
		}
		if len(sets) > first {
			p.Edge = sets[first:len(sets):len(sets)]
		}
	}
	p.G = make([][]int, len(p.InNames))
	if sc.Pos = d.at[keyG]; sc.Pos != 0 {
		ok := sc.Object(func(ks, ke int) bool {
			in := lookup(p.InNames, s[ks:ke])
			if in < 0 {
				return false
			}
			start := len(slab)
			ok := sc.Array(func() bool {
				a, b, _ := sc.String()
				o := lookup(p.OutNames, s[a:b])
				slab = append(slab, o)
				return o >= 0
			})
			if ok && len(slab) > start {
				p.G[in] = slab[start:len(slab):len(slab)]
				slices.Sort(p.G[in])
			}
			return ok
		})
		if !ok {
			return p, false
		}
	}
	return p, true
}

// names fills dst from the name array of key k.
func (d *plainDecoder) names(k int, dst []string) []string {
	sc := &d.sc
	sc.Pos = d.at[k]
	sc.Array(func() bool {
		a, b, _ := sc.String()
		dst = append(dst, d.s[a:b])
		return true
	})
	return dst
}

// lookup returns the index of name in names, searching from the end
// so that a duplicated name resolves to its last index, or -1.
func lookup(names []string, name string) int {
	for i := len(names) - 1; i >= 0; i-- {
		if names[i] == name {
			return i
		}
	}
	return -1
}

// nextField returns the bounds of the first field of s[i:end] as
// strings.Fields splits it: runs of non-space runes separated by
// unicode.IsSpace. The bounds are equal when no field is left.
func nextField(s string, i, end int) (int, int) {
	for i < end {
		n, space := spaceAt(s, i, end)
		if !space {
			break
		}
		i += n
	}
	start := i
	for i < end {
		n, space := spaceAt(s, i, end)
		if space {
			break
		}
		i += n
	}
	return start, i
}

// spaceAt returns the width of the rune at s[i] and whether it is
// white space.
func spaceAt(s string, i, end int) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, c <= ' ' && (c == ' ' || c-'\t' <= '\r'-'\t')
	}
	r, n := utf8.DecodeRuneInString(s[i:end])
	return n, unicode.IsSpace(r)
}
