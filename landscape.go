// Package repro reproduces "The Landscape of Distributed Complexities on
// Trees and Beyond" (Grunau, Rozhoň, Brandt; PODC 2022) as an executable
// Go library: locally checkable labeling (LCL) problems, the LOCAL /
// VOLUME / LCA / PROD-LOCAL model simulators, the round elimination
// operators R and R̄ with the paper's gap pipeline (Theorem 1.1), the
// order-invariance machinery (Theorems 1.3 and 2.11), oriented-grid
// speed-ups (Theorem 1.4), and a decidable classifier for LCLs on cycles.
//
// This root package is a façade: it re-exports the most used entry points
// so downstream code can start with a single import. The full API lives in
// the internal packages (internal/lcl, internal/re, internal/local,
// internal/volume, internal/grid, internal/classify, internal/core, ...)
// and is exercised end-to-end by examples/ and cmd/.
package repro

import (
	"repro/internal/canon"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/jobs"
	"repro/internal/lcl"
	"repro/internal/lll"
	"repro/internal/memo"
	"repro/internal/problems"
	"repro/internal/re"
	"repro/internal/rooted"
	"repro/internal/service"
)

// Problem is a node-edge-checkable LCL problem (Definition 2.3).
type Problem = lcl.Problem

// Builder assembles Problems with symbolic label names.
type Builder = lcl.Builder

// NewProblem starts a problem definition; nil inNames means "no inputs".
func NewProblem(name string, inNames, outNames []string) *Builder {
	return lcl.NewBuilder(name, inNames, outNames)
}

// Graph is a bounded-degree port-numbered graph (Section 2).
type Graph = graph.Graph

// Graph constructors for the classes the paper quantifies over.
var (
	NewGraph     = graph.New
	Path         = graph.Path
	Cycle        = graph.Cycle
	RandomTree   = graph.RandomTree
	RandomForest = graph.RandomForest
	Torus        = graph.Torus
)

// TreeVerdict is the Theorem 1.1 classification outcome on trees.
type TreeVerdict = core.TreeVerdict

// ClassifyOnTrees runs the round-elimination gap pipeline of Theorem 1.1:
// it either certifies O(1) complexity (with an executable constant-round
// solver) or an Ω(log* n) lower bound, on trees and forests.
func ClassifyOnTrees(p *Problem, maxLevels int) (*TreeVerdict, error) {
	return core.ClassifyOnTrees(p, maxLevels)
}

// CycleClass is the decided complexity class on cycles.
type CycleClass = classify.Class

// Cycle complexity classes (Section 1.4 decidability).
const (
	Unsolvable = classify.Unsolvable
	Constant   = classify.Constant
	LogStar    = classify.LogStar
	Global     = classify.Global
)

// ClassifyOnCycles decides O(1) / Θ(log* n) / Θ(n) / unsolvable for an
// input-free LCL on cycles.
func ClassifyOnCycles(p *Problem) (*classify.Result, error) {
	return classify.Cycles(p)
}

// RoundElimination applies one R or R̄ step (Definitions 3.1/3.2).
func RoundElimination(p *Problem, op re.Op, mode re.Mode) (*re.Step, error) {
	return re.Apply(p, op, mode, re.Limits{})
}

// Round elimination operators and modes, re-exported.
const (
	OpR      = re.OpR
	OpRBar   = re.OpRBar
	Faithful = re.Faithful
	Pruned   = re.Pruned
)

// Standard problems (witnesses for every populated landscape class).
var (
	Coloring              = problems.Coloring
	MIS                   = problems.MIS
	MaximalMatching       = problems.MaximalMatching
	SinklessOrientation   = problems.SinklessOrientation
	ConsistentOrientation = problems.ConsistentOrientation
	TrivialProblem        = problems.Trivial
)

// Census is the exhaustive classified enumeration of all small cycle
// LCLs (see internal/enumerate): the landscape regenerated over an
// entire problem space rather than a witness battery.
type Census = enumerate.Census

// RunCensus enumerates and classifies every input-free cycle LCL over a
// k-letter output alphabet (k <= 3); with dedup, one representative per
// label-isomorphism class.
func RunCensus(k int, dedup bool) (*Census, error) { return enumerate.Run(k, dedup) }

// CensusOpts configures parallel, memoized census runs.
type CensusOpts = enumerate.RunOpts

// RunCensusWith is RunCensus over a worker pool with an optional shared
// memo cache (see MemoCache): re-runs against a warm cache skip every
// classification.
func RunCensusWith(k int, dedup bool, opts CensusOpts) (*Census, error) {
	return enumerate.RunWith(k, dedup, opts)
}

// CanonicalForm is the canonical form of a problem under label
// isomorphism (see internal/canon).
type CanonicalForm = canon.Form

// Canonicalize computes p's canonical form: equal encodings iff
// label-isomorphic (exact within the default search budget).
func Canonicalize(p *Problem) (*CanonicalForm, error) { return canon.Canonicalize(p) }

// Fingerprint returns the stable 64-bit fingerprint of p's canonical
// form; label-isomorphic problems always agree. It keys the memoization
// cache of the classification service.
func Fingerprint(p *Problem) (uint64, error) { return canon.Fingerprint(p) }

// MemoCache is the sharded, concurrency-safe classification memo cache
// (see internal/memo).
type MemoCache = memo.Cache

// NewMemoCache builds a cache with the given shard count and total
// capacity (zeros select defaults).
func NewMemoCache(shards, capacity int) *MemoCache { return memo.New(shards, capacity) }

// ClassificationEngine is the batch classification service: a worker
// pool dispatching through the decider registry (internal/decide) with
// per-decider memoization and in-flight request deduplication (see
// internal/service and cmd/lclserver for the HTTP transport).
type ClassificationEngine = service.Engine

// Classification request/response types, re-exported. A request's Mode
// names a registered decider — "cycles", "trees", "paths-inputs",
// "synthesize", "rooted", or "grid" with the default registry; a running
// engine lists its registry via Deciders().
type (
	ClassifyRequest  = service.Request
	ClassifyResponse = service.Response
	ServiceConfig    = service.Config
)

// ComplexityClass is the shared complexity-class lattice every decider's
// verdict maps onto: unsolvable < O(1) < Θ(log* n) < Θ(log n) <
// Θ(n^{1/k}) < Θ(n) < unknown, with Join/Meet and String/ParseClass
// round-trips (see internal/decide).
type ComplexityClass = decide.Class

// RootedProblemSpec is the transport-neutral rooted-tree problem spec
// the "rooted" decider consumes (ClassifyRequest.Rooted).
type (
	RootedProblemSpec = decide.RootedProblem
	RootedConfigSpec  = decide.RootedConfig
)

// ParseComplexityClass inverts ComplexityClass.String.
func ParseComplexityClass(s string) (ComplexityClass, error) { return decide.ParseClass(s) }

// DefaultDeciderRegistry builds the registry with every built-in
// decision procedure; pass a custom registry via ServiceConfig.Registry
// to add or restrict deciders.
func DefaultDeciderRegistry() *decide.Registry { return service.DefaultRegistry() }

// ClassifyOnRootedTrees decides an LCL on δ-regular rooted trees: exact
// solvability across every complete-tree depth plus anonymous
// constant-radius synthesis up to maxRadius, on the shared lattice.
func ClassifyOnRootedTrees(spec *RootedProblemSpec, maxRadius int) (*rooted.Verdict, error) {
	p, err := rooted.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	return rooted.ClassifyProblem(p, maxRadius)
}

// ClassifyOnGrids decides an LCL on consistently oriented
// dims-dimensional tori: exact for dims = 1 and for axis-factored
// direction-labeled problems, sound and partial otherwise (Theorem 1.4
// landscape; see internal/grid).
func ClassifyOnGrids(p *Problem, dims int) (*grid.Verdict, error) {
	return grid.Classify(p, dims)
}

// NewClassificationEngine starts a classification service; call Close
// when done.
func NewClassificationEngine(cfg ServiceConfig) *ClassificationEngine { return service.New(cfg) }

// Background job orchestration (see internal/jobs and the engine's
// SubmitJob / GetJob / ListJobs / CancelJob / WatchJob methods): the
// expensive census workloads as resumable, observable background jobs with progress streaming and
// checkpoint/resume through the snapshot store.
type (
	JobSpec  = jobs.Spec
	Job      = jobs.Job
	JobEvent = jobs.Event
)

// The engine's job types.
const (
	JobCensus       = service.JobCensus
	JobPathCensus   = service.JobPathCensus
	JobRootedCensus = service.JobRootedCensus
)

// SynthesizeCycleAlgorithm searches radii 0..rMax for an order-invariant
// constant-round cycle algorithm solving p, constructively certifying
// O(1) complexity (or exhaustively refuting it for the searched radii).
func SynthesizeCycleAlgorithm(p *Problem, rMax int) (*enumerate.Synthesized, int, bool, error) {
	return enumerate.Decide(p, rMax)
}

// PathsWithInputs decides solvability of an LCL with inputs on all
// input-labeled paths (Section 1.4: decidable, PSPACE-hard), returning a
// witness bad input when unsolvable.
func PathsWithInputs(p *Problem) (*classify.InputsResult, error) {
	return classify.PathsWithInputs(p)
}

// LLLSystem is an LCL reformulated as a Lovász-local-lemma constraint
// system (class (C) of the landscape; see internal/lll).
type LLLSystem = lll.System

// ToLLL reformulates an LCL on a concrete graph as an LLL system — one
// variable per half-edge, one bad event per node and per edge.
func ToLLL(p *Problem, g *Graph, fin []int) (*LLLSystem, error) { return lll.FromLCL(p, g, fin) }

// SolveByResampling runs distributed Moser–Tardos on an LLL system.
func SolveByResampling(sys *LLLSystem, seed int64) (*lll.Result, error) {
	return lll.RunParallel(sys, lll.Opts{Seed: seed})
}
