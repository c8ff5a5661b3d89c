package lcl

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// jsonProblem is the serialized form: configurations are written with
// label names so files are self-describing and stable under reordering.
type jsonProblem struct {
	Name string              `json:"name"`
	In   []string            `json:"in_alphabet"`
	Out  []string            `json:"out_alphabet"`
	Node map[string][]string `json:"node_constraints"` // degree -> ["A B C", ...]
	Edge []string            `json:"edge_constraints"` // ["A B", ...]
	G    map[string][]string `json:"g"`                // in label -> out labels
}

// MarshalJSON serializes the problem with symbolic label names.
func (p *Problem) MarshalJSON() ([]byte, error) {
	jp := jsonProblem{
		Name: p.Name,
		In:   p.InNames,
		Out:  p.OutNames,
		Node: map[string][]string{},
		G:    map[string][]string{},
	}
	for d, list := range p.Node {
		key := fmt.Sprintf("%d", d)
		for _, m := range list {
			parts := make([]string, len(m))
			for i, x := range m {
				parts[i] = p.OutNames[x]
			}
			jp.Node[key] = append(jp.Node[key], strings.Join(parts, " "))
		}
		sort.Strings(jp.Node[key])
	}
	for _, m := range p.Edge {
		jp.Edge = append(jp.Edge, p.OutNames[m[0]]+" "+p.OutNames[m[1]])
	}
	sort.Strings(jp.Edge)
	for in, outs := range p.G {
		names := make([]string, len(outs))
		for i, o := range outs {
			names[i] = p.OutNames[o]
		}
		sort.Strings(names)
		jp.G[p.InNames[in]] = names
	}
	return json.MarshalIndent(jp, "", "  ")
}

// UnmarshalJSON parses the symbolic form: in one pass when the input
// has the plain shape (see ParsePlain), otherwise with encoding/json.
func (p *Problem) UnmarshalJSON(data []byte) error {
	if parsePlain(data, p) {
		return nil
	}
	return p.unmarshalReference(data)
}

// unmarshalReference is the encoding/json decoder of the symbolic form:
// the path for every input ParsePlain declines, the source of every
// decode error, and the oracle the fast path is tested against. It
// visits degree keys and g keys in sorted order, so that of several
// errors it always reports the same one.
func (p *Problem) unmarshalReference(data []byte) error {
	var jp jsonProblem
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	outIdx := map[string]int{}
	for i, n := range jp.Out {
		outIdx[n] = i
	}
	inIdx := map[string]int{}
	for i, n := range jp.In {
		inIdx[n] = i
	}
	*p = Problem{
		Name:     jp.Name,
		InNames:  jp.In,
		OutNames: jp.Out,
		Node:     map[int][]Multiset{},
	}
	for _, dStr := range sortedKeys(jp.Node) {
		list := jp.Node[dStr]
		var d int
		if _, err := fmt.Sscanf(dStr, "%d", &d); err != nil {
			return fmt.Errorf("lcl: bad degree key %q", dStr)
		}
		for _, cfg := range list {
			m, err := parseMultiset(cfg, outIdx)
			if err != nil {
				return err
			}
			if len(m) != d {
				return fmt.Errorf("lcl: config %q has size %d under degree %d", cfg, len(m), d)
			}
			p.Node[d] = append(p.Node[d], m)
		}
	}
	for _, cfg := range jp.Edge {
		m, err := parseMultiset(cfg, outIdx)
		if err != nil {
			return err
		}
		if len(m) != 2 {
			return fmt.Errorf("lcl: edge config %q has size %d", cfg, len(m))
		}
		p.Edge = append(p.Edge, m)
	}
	p.G = make([][]int, len(jp.In))
	for _, inName := range sortedKeys(jp.G) {
		outs := jp.G[inName]
		i, ok := inIdx[inName]
		if !ok {
			return fmt.Errorf("lcl: unknown input label %q in g", inName)
		}
		for _, oName := range outs {
			o, ok := outIdx[oName]
			if !ok {
				return fmt.Errorf("lcl: unknown output label %q in g", oName)
			}
			p.G[i] = append(p.G[i], o)
		}
		sort.Ints(p.G[i])
	}
	return p.Validate()
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func parseMultiset(s string, idx map[string]int) (Multiset, error) {
	fields := strings.Fields(s)
	m := make(Multiset, len(fields))
	for i, f := range fields {
		x, ok := idx[f]
		if !ok {
			return nil, fmt.Errorf("lcl: unknown label %q in config %q", f, s)
		}
		m[i] = x
	}
	sort.Ints(m)
	return m, nil
}

// Builder assembles problems programmatically with symbolic labels.
type Builder struct {
	p      *Problem
	outIdx map[string]int
	inIdx  map[string]int
	err    error
}

// NewBuilder starts a problem with the given alphabets. If inNames is nil,
// the problem has no inputs (a single input label "·" with g mapping to
// all outputs once Build is called).
func NewBuilder(name string, inNames, outNames []string) *Builder {
	if inNames == nil {
		inNames = []string{"·"}
	}
	b := &Builder{
		p: &Problem{
			Name:     name,
			InNames:  inNames,
			OutNames: outNames,
			Node:     map[int][]Multiset{},
			G:        make([][]int, len(inNames)),
		},
		outIdx: map[string]int{},
		inIdx:  map[string]int{},
	}
	for i, n := range outNames {
		b.outIdx[n] = i
	}
	for i, n := range inNames {
		b.inIdx[n] = i
	}
	return b
}

func (b *Builder) out(name string) int {
	i, ok := b.outIdx[name]
	if !ok && b.err == nil {
		b.err = fmt.Errorf("lcl: unknown output label %q", name)
	}
	return i
}

// Node adds an allowed node configuration given by label names.
func (b *Builder) Node(labels ...string) *Builder {
	m := make(Multiset, len(labels))
	for i, n := range labels {
		m[i] = b.out(n)
	}
	sort.Ints(m)
	b.p.Node[len(m)] = append(b.p.Node[len(m)], m)
	return b
}

// Edge adds an allowed edge configuration.
func (b *Builder) Edge(a, c string) *Builder {
	b.p.Edge = append(b.p.Edge, NewMultiset(b.out(a), b.out(c)))
	return b
}

// Allow sets g(in) ⊇ outs.
func (b *Builder) Allow(in string, outs ...string) *Builder {
	i, ok := b.inIdx[in]
	if !ok {
		if b.err == nil {
			b.err = fmt.Errorf("lcl: unknown input label %q", in)
		}
		return b
	}
	for _, o := range outs {
		b.p.G[i] = append(b.p.G[i], b.out(o))
	}
	sort.Ints(b.p.G[i])
	return b
}

// Build finalizes the problem. Unset g entries default to "all outputs
// allowed" (the usual convention for problems without inputs).
func (b *Builder) Build() (*Problem, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.p.G {
		if b.p.G[i] == nil {
			all := make([]int, len(b.p.OutNames))
			for o := range all {
				all[o] = o
			}
			b.p.G[i] = all
		}
	}
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// MustBuild is Build that panics on error; for static problem tables.
func (b *Builder) MustBuild() *Problem {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
