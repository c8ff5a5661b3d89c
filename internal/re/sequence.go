package re

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/lcl"
)

// Sequence is the iterated round elimination sequence
// Π, R(Π), R̄(R(Π)), R(R̄(R(Π))), ... of Section 3.4, where
// f(Π) = R̄(R(Π)) is applied repeatedly.
type Sequence struct {
	Base  *lcl.Problem
	Steps []*Step // alternating OpR, OpRBar, OpR, ...
	Mode  Mode
	Lim   Limits

	baseTab *table // Base's constraint table, compiled on first use
}

// NewSequence starts a sequence at base.
func NewSequence(base *lcl.Problem, mode Mode, lim Limits) *Sequence {
	return &Sequence{Base: base, Mode: mode, Lim: lim}
}

// Levels returns how many f = R̄∘R applications are complete.
func (s *Sequence) Levels() int { return len(s.Steps) / 2 }

// ProblemAt returns f^t(Π): t=0 is the base problem.
func (s *Sequence) ProblemAt(t int) *lcl.Problem {
	if t == 0 {
		return s.Base
	}
	return s.Steps[2*t-1].Prob
}

// baseTable returns Base's constraint table, compiling it on first use.
func (s *Sequence) baseTable() (*table, error) {
	if s.baseTab == nil {
		tab, err := compile(s.Base)
		if err != nil {
			return nil, err
		}
		s.baseTab = tab
	}
	return s.baseTab, nil
}

// Extend applies f = R̄∘R once more.
func (s *Sequence) Extend() error {
	var cur *lcl.Problem
	var tab *table
	var err error
	if len(s.Steps) > 0 {
		last := s.Steps[len(s.Steps)-1]
		cur, tab = last.Prob, last.tab
	} else {
		cur = s.Base
		tab, err = s.baseTable()
	}
	var r *Step
	if err == nil {
		r, err = apply(cur, tab, OpR, s.Mode, s.Lim)
	}
	if err != nil {
		return fmt.Errorf("re: extending with R at level %d: %w", s.Levels(), err)
	}
	rr, err := apply(r.Prob, r.tab, OpRBar, s.Mode, s.Lim)
	if err != nil {
		return fmt.Errorf("re: extending with R̄ at level %d: %w", s.Levels(), err)
	}
	s.Steps = append(s.Steps, r, rr)
	return nil
}

// Verdict classifies the outcome of the gap pipeline.
type Verdict int

// Pipeline outcomes.
const (
	// VerdictConstant: f^t(Π) became 0-round solvable, so Π is solvable in
	// O(1) rounds (Theorem 3.10's reconstruction via Lemma 3.9).
	VerdictConstant Verdict = iota
	// VerdictCycle: the sequence revisited an isomorphic problem without
	// ever being 0-round solvable, so it never will be — certifying that
	// Π is NOT o(log* n) on forests (contrapositive of Theorem 3.10).
	VerdictCycle
	// VerdictInconclusive: the iteration budget or size limits ran out.
	VerdictInconclusive
)

func (v Verdict) String() string {
	switch v {
	case VerdictConstant:
		return "O(1)"
	case VerdictCycle:
		return "Ω(log* n) [RE cycle]"
	default:
		return "inconclusive"
	}
}

// GapResult reports a run of the tree-gap pipeline on one problem.
type GapResult struct {
	Verdict Verdict
	// Level t such that f^t(Π) is 0-round solvable (VerdictConstant), or
	// at which the isomorphic repeat was found (VerdictCycle).
	Level   int
	Witness *ZeroRound // for VerdictConstant
	Seq     *Sequence
	// CycleWith is the earlier level the repeat is isomorphic to
	// (VerdictCycle).
	CycleWith int
	// Reason explains an inconclusive verdict (e.g. alphabet growth past
	// the representable cap).
	Reason string
}

// RunGapPipeline iterates f = R̄∘R up to maxLevels times, checking 0-round
// solvability (over the given degree set) after each application, and
// detecting cycles up to label renaming. This is the executable form of
// the Section 3.4 argument: a problem with complexity o(log* n) must
// become 0-round solvable after finitely many applications (with the
// failure-probability bookkeeping of Theorem 3.4 guaranteeing the
// randomized chain survives), and conversely Lemma 3.9 rebuilds a
// constant-round algorithm from the 0-round witness.
func RunGapPipeline(base *lcl.Problem, degrees []int, mode Mode, lim Limits, maxLevels int) (*GapResult, error) {
	seq := NewSequence(base, mode, lim)
	tab, err := seq.baseTable()
	if err != nil {
		return &GapResult{Verdict: VerdictInconclusive, Seq: seq, Reason: err.Error()}, nil
	}
	levels := []*gapLevel{newGapLevel(base, tab)}
	if w, ok := zeroRound(base, tab, degrees); ok {
		return &GapResult{Verdict: VerdictConstant, Level: 0, Witness: w, Seq: seq}, nil
	}
	for t := 1; t <= maxLevels; t++ {
		if err := seq.Extend(); err != nil {
			// Alphabet growth beyond the representable cap is the expected
			// behaviour of real round elimination on Θ(log* n)-hard
			// problems (e.g. coloring): report inconclusive, carrying the
			// reason, rather than failing the pipeline.
			return &GapResult{Verdict: VerdictInconclusive, Level: t - 1, Seq: seq, Reason: err.Error()}, nil
		}
		cur := newGapLevel(seq.ProblemAt(t), seq.Steps[2*t-1].tab)
		if w, ok := zeroRound(cur.p, cur.tab, degrees); ok {
			return &GapResult{Verdict: VerdictConstant, Level: t, Witness: w, Seq: seq}, nil
		}
		for earlier, e := range levels {
			if !slices.Equal(e.shape, cur.shape) || e.canonical() != cur.canonical() {
				continue
			}
			if isomorphic(e.p, e.tab, cur.p, cur.tab) {
				return &GapResult{Verdict: VerdictCycle, Level: t, CycleWith: earlier, Seq: seq}, nil
			}
		}
		levels = append(levels, cur)
	}
	return &GapResult{Verdict: VerdictInconclusive, Level: maxLevels, Seq: seq}, nil
}

// gapLevel is one level f^t(Π) of the gap pipeline, with what the repeat
// check compares. Canonical strings are costly, and the levels of a
// pipeline mostly differ in size, so each level carries a
// renaming-invariant shape, every part of which its canonical string
// spells out: the label count, the configuration count per degree, the
// edge count and each |g(in)|. Equal canonical strings imply equal
// shapes, so a level's canonical string is built only once another
// level's shape equals its own.
type gapLevel struct {
	p     *lcl.Problem
	tab   *table
	shape []int
	canon string // built by canonical on first use
}

func newGapLevel(p *lcl.Problem, tab *table) *gapLevel {
	shape := make([]int, 0, 3+2*len(tab.degrees)+len(tab.g))
	shape = append(shape, p.NumOut(), len(tab.degrees))
	for _, d := range tab.degrees {
		shape = append(shape, d, len(p.Node[d]))
	}
	shape = append(shape, len(p.Edge))
	for _, gm := range tab.g {
		shape = append(shape, gm.Count())
	}
	return &gapLevel{p: p, tab: tab, shape: shape}
}

func (l *gapLevel) canonical() string {
	if l.canon == "" {
		l.canon = canonical(l.p, l.tab)
	}
	return l.canon
}

// SolveConstant runs the reconstructed constant-round algorithm end to
// end: the 0-round witness labels f^t(Π) on (g, fin), then Lemma 3.9 lifts
// the solution down t levels to a solution of Π. This is the executable
// statement of Theorem 3.10.
func (r *GapResult) SolveConstant(g *graph.Graph, fin []int) ([]int, error) {
	if r.Verdict != VerdictConstant {
		return nil, fmt.Errorf("re: SolveConstant on verdict %v", r.Verdict)
	}
	fout, err := r.Witness.Run(g, fin)
	if err != nil {
		return nil, err
	}
	for t := r.Level; t >= 1; t-- {
		q := r.Seq.ProblemAt(t - 1)
		rStep := r.Seq.Steps[2*t-2]
		rrStep := r.Seq.Steps[2*t-1]
		fout, err = LiftOnce(q, rStep, rrStep, g, fin, nil, fout)
		if err != nil {
			return nil, fmt.Errorf("re: lift at level %d: %w", t, err)
		}
	}
	return fout, nil
}
