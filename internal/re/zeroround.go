package re

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/lcl"
)

// This file implements the deterministic 0-round solvability decision from
// the proof of Theorem 3.10: a 0-round deterministic algorithm A_det is a
// function from a node's (degree, input tuple) to an output tuple, and it
// is correct on all forests iff
//
//  1. for every degree d in play and every input tuple, the chosen output
//     tuple satisfies the node constraint and g, and
//  2. the set of output labels used anywhere is "self-compatible": every
//     unordered pair (including twice the same label) is an allowed edge
//     configuration — because in a forest, any port of any node type can
//     be adjacent to any port of any (equal or different) node type.
//
// Condition 2 is monotone in the used-label set, so it suffices to test
// maximal self-compatible cliques of the edge-compatibility graph.

// ZeroRound is a deterministic 0-round algorithm: a witness for
// ZeroRoundSolvable. Outputs are assigned per port, depending only on the
// node's degree and per-port input labels.
type ZeroRound struct {
	Prob    *lcl.Problem
	Clique  []int // self-compatible output labels the algorithm draws from
	Degrees []int

	tab *table // Prob's constraint table
}

// ZeroRoundSolvable decides whether prob admits a deterministic 0-round
// algorithm on forests whose node degrees range over degrees, and returns
// a witness if so. Problems over more than MaxBaseLabels output labels
// are reported not 0-round solvable, the safe direction.
func ZeroRoundSolvable(prob *lcl.Problem, degrees []int) (*ZeroRound, bool) {
	tab, err := compile(prob)
	if err != nil {
		return nil, false
	}
	return zeroRound(prob, tab, degrees)
}

// zeroRound is ZeroRoundSolvable on prob's compiled table.
func zeroRound(prob *lcl.Problem, tab *table, degrees []int) (*ZeroRound, bool) {
	if tab.self.Empty() {
		return nil, false
	}
	var witness *ZeroRound
	tested := 0
	tab.maximalCliques(0, tab.self, 0, func(clique Set) bool {
		tested++
		if tested > maxCliquesTested {
			return false // give up: report not-0-round (the safe direction)
		}
		if tab.cliqueSupportsAllTypes(clique, degrees) {
			witness = &ZeroRound{Prob: prob, Clique: clique.Members(), Degrees: degrees, tab: tab}
			return false
		}
		return true
	})
	return witness, witness != nil
}

// maxCliquesTested caps the maximal-clique enumeration; RE-generated
// problems with dense compatibility can have exponentially many maximal
// cliques. Giving up reports "not 0-round solvable", which can only make
// the pipeline inconclusive, never unsound.
const maxCliquesTested = 100_000

// maximalCliques enumerates the maximal cliques of the edge-compatibility
// graph that extend r by vertices of p and avoid x (Bron–Kerbosch without
// pivoting; alphabets are small), in ascending vertex order, invoking fn
// for each. It reports false once fn has returned false, which stops the
// enumeration.
func (t *table) maximalCliques(r, p, x Set, fn func(Set) bool) bool {
	if p.Empty() && x.Empty() {
		return fn(r)
	}
	for p != 0 {
		v := bits.TrailingZeros64(uint64(p))
		adj := t.edge[v]
		if !t.maximalCliques(r.Add(v), p&adj&^SetOf(v), x&adj, fn) {
			return false
		}
		p &^= SetOf(v)
		x = x.Add(v)
	}
	return true
}

// cliqueSupportsAllTypes checks condition 1 for every degree and every
// input multiset (an ordered tuple has a valid assignment iff its multiset
// does, since g binds outputs to inputs pointwise and node constraints are
// multiset-based).
func (t *table) cliqueSupportsAllTypes(clique Set, degrees []int) bool {
	for _, d := range degrees {
		n := t.node[d]
		if n == nil || len(n.configs) == 0 {
			return false
		}
		ok := true
		out, key := make([]int, d), make([]byte, d)
		multisetsOf(len(t.g), d, func(inputs idMultiset) {
			if ok {
				ok = t.assignOutputs(n, clique, inputs, out, 0, key)
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// assignOutputs finds the lexicographically first output tuple for the
// given ordered inputs with outputs drawn from the clique, satisfying g
// pointwise and the node constraint on the final multiset. It fills
// out[i:], given out[:i]; key is scratch of length len(inputs).
func (t *table) assignOutputs(n *nodeTable, clique Set, inputs, out []int, i int, key []byte) bool {
	d := len(inputs)
	if d == 0 {
		return len(n.configs) > 0
	}
	in := inputs[i]
	if in < 0 || in >= len(t.g) {
		return false
	}
	allowed := clique & t.g[in]
	if i == d-1 {
		// The last output must complete the others to a configuration in
		// Nᵈ; the smallest such label is the lexicographically first.
		for k, o := range out[:i] {
			key[k] = byte(o)
		}
		slices.Sort(key[:i])
		allowed &= n.complete(key[:i])
		if allowed.Empty() {
			return false
		}
		out[i] = bits.TrailingZeros64(uint64(allowed))
		return true
	}
	for x := uint64(allowed); x != 0; x &= x - 1 {
		out[i] = bits.TrailingZeros64(x)
		if t.assignOutputs(n, clique, inputs, out, i+1, key) {
			return true
		}
	}
	return false
}

// Outputs returns the 0-round algorithm's output tuple for a node with the
// given per-port input labels (nil means all NoInput). The result is
// deterministic in the inputs only — the defining property of A_det in
// Theorem 3.10's proof.
func (z *ZeroRound) Outputs(inputs []int) ([]int, bool) {
	n := z.tab.node[len(inputs)]
	if n == nil {
		return nil, false
	}
	out := make([]int, len(inputs))
	if !z.tab.assignOutputs(n, SetOf(z.Clique...), inputs, out, 0, make([]byte, len(inputs))) {
		return nil, false
	}
	return out, true
}

// Run applies the 0-round algorithm to every node of g, producing a
// half-edge labeling of z.Prob.
func (z *ZeroRound) Run(g *graph.Graph, fin []int) ([]int, error) {
	out := make([]int, g.NumHalfEdges())
	for v := 0; v < g.N(); v++ {
		inputs := make([]int, g.Deg(v))
		for p := range inputs {
			if fin != nil {
				inputs[p] = fin[g.HalfEdge(v, p)]
			}
		}
		lab, ok := z.Outputs(inputs)
		if !ok {
			return nil, errNoAssignment(v)
		}
		for p, o := range lab {
			out[g.HalfEdge(v, p)] = o
		}
	}
	return out, nil
}

type errNoAssignment int

func (e errNoAssignment) Error() string {
	return "re: zero-round witness has no assignment at node (degree/input outside decided range)"
}
