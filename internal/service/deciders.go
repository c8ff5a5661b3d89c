// The registry registration file: the only place that names the
// engine's decision procedures. Each decider packages one procedure —
// its request validation and parameter defaults, its memo key domain
// (which also tags snapshot records, through the key), its computation,
// and the projection of its payload onto the shared complexity-class
// lattice (internal/decide). Adding a decision procedure to the whole
// service stack — POST /v1/classify, batches, memoization,
// singleflight, per-decider stats, snapshots, and (via the optional
// CensusRunner interface in jobs.go) resumable census jobs — is one
// entry in DefaultRegistry.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/rooted"
)

// The registered decider names. These are the values of a request's
// Mode field and the keys of the per-decider stats in /statsz.
const (
	// ModeCycles decides O(1) / Θ(log* n) / Θ(n) / unsolvable on
	// unoriented cycles (input-free problems only).
	ModeCycles = "cycles"
	// ModeTrees runs the Theorem 1.1 round-elimination gap pipeline on
	// trees and forests.
	ModeTrees = "trees"
	// ModePathsInputs decides solvability on all input-labeled paths.
	ModePathsInputs = "paths-inputs"
	// ModeSynthesize searches for an order-invariant constant-round
	// cycle algorithm (radii 0..MaxRadius).
	ModeSynthesize = "synthesize"
	// ModeRooted decides LCLs on δ-regular rooted trees: exact
	// solvability on every complete-tree depth plus anonymous
	// constant-radius synthesis (request.Rooted carries the problem).
	ModeRooted = "rooted"
	// ModeGrid decides LCLs on consistently oriented d-dimensional tori
	// (request.Dims): exact for d = 1 and for axis-factored
	// direction-labeled problems, sound and partial otherwise.
	ModeGrid = "grid"
)

// Defaults for per-decider search depths when a request leaves them
// zero.
const (
	DefaultMaxLevels    = 6 // round-elimination levels for trees
	DefaultMaxRadius    = 2 // synthesis radius cap for synthesize
	DefaultRootedRadius = rooted.DefaultCensusRadius
)

// MaxRootedRadius caps the rooted decider's synthesis radius, for
// requests and rooted census jobs alike: radius 3 already costs 33 s on
// HeightCap(2,3), and no compute can be cancelled.
const MaxRootedRadius = 2

// DefaultRegistry builds the registry with all six deciders. Engines
// constructed without an explicit Config.Registry use it.
func DefaultRegistry() *decide.Registry {
	r := decide.NewRegistry()
	r.MustRegister(cyclesDecider{})
	r.MustRegister(treesDecider{})
	r.MustRegister(pathsDecider{})
	r.MustRegister(synthDecider{})
	r.MustRegister(rootedDecider{})
	r.MustRegister(gridDecider{})
	return r
}

// requireProblem is the shared Normalize core of the lcl-based deciders.
func requireProblem(req *decide.Request) error {
	if req.Problem == nil {
		return fmt.Errorf("service: %s: missing problem", req.Mode)
	}
	return nil
}

// ---------------------------------------------------------------------
// cycles

type cyclesDecider struct{}

func (cyclesDecider) Name() string { return ModeCycles }

func (cyclesDecider) Normalize(req *decide.Request) error { return requireProblem(req) }

// MemoDomain is shared with the cycle census (enumerate.RunWith), so
// census runs and API traffic warm each other.
func (cyclesDecider) MemoDomain(req *decide.Request) string { return enumerate.CycleDomain }

// Fingerprint takes the orbit-table fast path for mask-shaped problems
// (input-free, degree-2 configs, g = all outputs, k within the tables):
// the canonical fingerprint of such a problem is a pure function of its
// mask orbit, which enumerate resolves by table lookup against the
// shared mask-fingerprint cache — the same keys the census publishes,
// so census runs and API traffic keep warming each other. Everything
// else canonicalizes fully.
func (cyclesDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	if req.Problem != nil {
		if fp, ok := enumerate.FastCycleFingerprint(req.Problem); ok {
			return fp, true, nil
		}
	}
	return decide.LCLFingerprint(req.Problem)
}

func (cyclesDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	return classify.Cycles(req.Problem)
}

// cyclesDetail is the wire view of a cycle classification.
type cyclesDetail struct {
	Class   string `json:"class"`
	Period  int    `json:"period,omitempty"`
	Witness string `json:"witness,omitempty"`
}

func (d *cyclesDetail) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"class":`...), d.Class)
	if d.Period != 0 {
		b = strconv.AppendInt(append(b, `,"period":`...), int64(d.Period), 10)
	}
	if d.Witness != "" {
		b = appendString(append(b, `,"witness":`...), d.Witness)
	}
	return append(b, '}')
}

func (cyclesDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	res, ok := payload.(*classify.Result)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return &decide.Verdict{
		Class:  res.Class.Lattice(),
		Detail: &cyclesDetail{Class: res.Class.String(), Period: res.Period, Witness: res.Witness},
	}, nil
}

// ---------------------------------------------------------------------
// trees

type treesDecider struct{}

func (treesDecider) Name() string { return ModeTrees }

func (treesDecider) Normalize(req *decide.Request) error {
	if req.MaxLevels <= 0 {
		req.MaxLevels = DefaultMaxLevels
	}
	return requireProblem(req)
}

func (treesDecider) MemoDomain(req *decide.Request) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], "classify/trees/"...), int64(req.MaxLevels), 10))
}

func (treesDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	return decide.LCLFingerprint(req.Problem)
}

func (treesDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	return core.ClassifyOnTrees(req.Problem, req.MaxLevels)
}

// treesDetail is the wire view of a tree gap-pipeline verdict.
type treesDetail struct {
	Verdict    string `json:"verdict"`
	Constant   bool   `json:"constant"`
	LowerBound bool   `json:"lower_bound"`
	Level      int    `json:"level"`
}

func (d *treesDetail) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"verdict":`...), d.Verdict)
	b = strconv.AppendBool(append(b, `,"constant":`...), d.Constant)
	b = strconv.AppendBool(append(b, `,"lower_bound":`...), d.LowerBound)
	b = strconv.AppendInt(append(b, `,"level":`...), int64(d.Level), 10)
	return append(b, '}')
}

func (treesDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	v, ok := payload.(*core.TreeVerdict)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return &decide.Verdict{
		Class: v.Lattice(),
		Detail: &treesDetail{
			Verdict:    v.String(),
			Constant:   v.Constant,
			LowerBound: v.LowerBound,
			Level:      v.Level,
		},
	}, nil
}

// ---------------------------------------------------------------------
// paths-inputs

type pathsDecider struct{}

func (pathsDecider) Name() string { return ModePathsInputs }

func (pathsDecider) Normalize(req *decide.Request) error { return requireProblem(req) }

// MemoDomain is shared with the path census (enumerate.RunPathsWith).
func (pathsDecider) MemoDomain(req *decide.Request) string { return enumerate.PathDomain }

func (pathsDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	return decide.LCLFingerprint(req.Problem)
}

func (pathsDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	return classify.PathsWithInputs(req.Problem)
}

// pathsDetail is the wire view of a paths-with-inputs decision.
type pathsDetail struct {
	SolvableAllInputs bool  `json:"solvable_all_inputs"`
	BadInput          []int `json:"bad_input,omitempty"`
}

func (d *pathsDetail) appendJSON(b []byte) []byte {
	b = strconv.AppendBool(append(b, `{"solvable_all_inputs":`...), d.SolvableAllInputs)
	if len(d.BadInput) > 0 {
		b = append(b, `,"bad_input":[`...)
		for i, x := range d.BadInput {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func (pathsDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	res, ok := payload.(*classify.InputsResult)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	// Solvability on all inputs does not pin a complexity; a bad input
	// certifies unsolvability outright.
	class := decide.Unsolvable
	if res.SolvableAllInputs {
		class = decide.Unknown
	}
	return &decide.Verdict{
		Class:  class,
		Detail: &pathsDetail{SolvableAllInputs: res.SolvableAllInputs, BadInput: res.BadInput},
	}, nil
}

// ---------------------------------------------------------------------
// synthesize

type synthDecider struct{}

func (synthDecider) Name() string { return ModeSynthesize }

func (synthDecider) Normalize(req *decide.Request) error {
	if req.MaxRadius <= 0 {
		req.MaxRadius = DefaultMaxRadius
	}
	return requireProblem(req)
}

func (synthDecider) MemoDomain(req *decide.Request) string {
	return fmt.Sprintf("classify/synth/%d", req.MaxRadius)
}

func (synthDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	return decide.LCLFingerprint(req.Problem)
}

func (synthDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	alg, radius, found, err := enumerate.Decide(req.Problem, req.MaxRadius)
	if err != nil {
		return nil, err
	}
	return &SynthOutcome{Algorithm: alg, Radius: radius, Found: found}, nil
}

// synthDetail is the wire view of a synthesis outcome.
type synthDetail struct {
	Found  bool `json:"found"`
	Radius int  `json:"radius"`
}

func (d *synthDetail) appendJSON(b []byte) []byte {
	b = strconv.AppendBool(append(b, `{"found":`...), d.Found)
	b = strconv.AppendInt(append(b, `,"radius":`...), int64(d.Radius), 10)
	return append(b, '}')
}

func (synthDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	res, ok := payload.(*SynthOutcome)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	// A synthesized algorithm certifies O(1); refutation is exhaustive
	// only for the searched radii.
	class := decide.Unknown
	if res.Found {
		class = decide.Constant
	}
	return &decide.Verdict{
		Class:  class,
		Detail: &synthDetail{Found: res.Found, Radius: res.Radius},
	}, nil
}

// ---------------------------------------------------------------------
// rooted

type rootedDecider struct{}

func (rootedDecider) Name() string { return ModeRooted }

func (rootedDecider) Normalize(req *decide.Request) error {
	if req.MaxRadius <= 0 {
		req.MaxRadius = DefaultRootedRadius
	}
	if req.MaxRadius > MaxRootedRadius {
		return fmt.Errorf("service: rooted max_radius = %d out of range [1, %d]", req.MaxRadius, MaxRootedRadius)
	}
	// Build once to validate eagerly; Fingerprint and Compute rebuild
	// (construction is cheap next to synthesis).
	_, err := rooted.FromSpec(req.Rooted)
	return err
}

func (rootedDecider) MemoDomain(req *decide.Request) string {
	return rootedDomain(req.MaxRadius)
}

// rootedDomain is shared with the rooted census runner (jobs.go), so
// census jobs and API traffic warm each other.
func rootedDomain(maxRadius int) string {
	return fmt.Sprintf("decide/rooted/%d", maxRadius)
}

// RootedMemoClassifier returns a rooted.CensusOpts.Classify function
// that memoizes every verdict in cache under the rooted decider's memo
// domain — the exact per-problem discipline the rooted census job and
// API traffic share. Exported so out-of-process harnesses (cmd/lclbench)
// measure the production discipline instead of re-implementing it.
func RootedMemoClassifier(cache *memo.Cache, maxRadius int) func(*rooted.Problem) (*rooted.Verdict, error) {
	if maxRadius <= 0 {
		maxRadius = DefaultRootedRadius
	}
	domain := rootedDomain(maxRadius)
	return func(p *rooted.Problem) (*rooted.Verdict, error) {
		key := memo.Key(domain, p.Fingerprint())
		if v, ok := cache.Get(key); ok {
			if verdict, ok := v.(*rooted.Verdict); ok {
				return verdict, nil
			}
		}
		v, err := rooted.ClassifyProblem(p, maxRadius)
		if err == nil {
			cache.Put(key, v)
		}
		return v, err
	}
}

// Fingerprint hashes the exact problem structure (label-spelling
// sensitive, order-insensitive); identical requests always share a key.
func (rootedDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	p, err := rooted.FromSpec(req.Rooted)
	if err != nil {
		return 0, false, err
	}
	return p.Fingerprint(), true, nil
}

func (rootedDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	p, err := rooted.FromSpec(req.Rooted)
	if err != nil {
		return nil, err
	}
	return rooted.ClassifyProblem(p, req.MaxRadius)
}

func (rootedDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	v, ok := payload.(*rooted.Verdict)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return &decide.Verdict{Class: v.Class, Detail: v}, nil
}

// ---------------------------------------------------------------------
// grid

type gridDecider struct{}

func (gridDecider) Name() string { return ModeGrid }

func (gridDecider) Normalize(req *decide.Request) error {
	if req.Dims <= 0 {
		req.Dims = grid.DefaultDims
	}
	if req.Dims > grid.MaxDims {
		return fmt.Errorf("service: grid dims = %d out of range [1, %d]", req.Dims, grid.MaxDims)
	}
	return requireProblem(req)
}

func (gridDecider) MemoDomain(req *decide.Request) string {
	return fmt.Sprintf("decide/grid/%d", req.Dims)
}

// Fingerprint hashes the exact codec encoding rather than the canonical
// form: grid semantics pair input labels 2j/2j+1 into axes, and a
// canonical fingerprint identifies problems across input permutations
// that change the axis grouping — caching under it could serve the
// wrong answer. The exact hash is sound (identical encodings, identical
// answers) at the cost of not sharing entries across relabelings.
func (gridDecider) Fingerprint(req *decide.Request) (uint64, bool, error) {
	if req.Problem == nil {
		return 0, false, fmt.Errorf("service: grid: missing problem")
	}
	// Hash a name-blind copy: the name never changes the answer, and
	// including it would keep structurally identical requests from
	// sharing memo entries and singleflight.
	anon := *req.Problem
	anon.Name = ""
	raw, err := json.Marshal(&anon)
	if err != nil {
		return 0, false, err
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64(), true, nil
}

func (gridDecider) Compute(ctx context.Context, req *decide.Request) (any, error) {
	return grid.Classify(req.Problem, req.Dims)
}

func (gridDecider) WrapPayload(payload any) (*decide.Verdict, error) {
	v, ok := payload.(*grid.Verdict)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return &decide.Verdict{Class: v.Class, Detail: v}, nil
}
