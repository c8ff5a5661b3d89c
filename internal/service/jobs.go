// Job orchestration wiring: the engine's long-running workloads —
// censuses over whole problem spaces — exposed as resumable background
// jobs (internal/jobs).
//
// The census job table is built generically from the decider registry:
// any registered decider implementing CensusRunner contributes one job
// type. The resume contract composes three existing mechanisms rather
// than inventing a new one: census runners publish every individual
// decision into the engine's memo cache as they go, the jobs manager
// periodically checkpoints by saving the engine snapshot
// (internal/store), and the job ledger records which jobs were in
// flight. A process killed mid-census therefore restarts with (a) the
// job re-enqueued from the ledger and (b) the memo cache warm from the
// last checkpoint — the re-run skips every decision already persisted
// and recomputes only the tail.
package service

import (
	"context"
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rooted"
)

// The job types the engine serves. The census types are contributed by
// the deciders (CensusRunner); the names are stable because job ledgers
// persist them across restarts.
const (
	// JobCensus is the classified cycle-LCL census (Spec.K, Spec.Dedup),
	// contributed by the cycles decider.
	JobCensus = "census"
	// JobPathCensus is the path-LCL solvability census (Spec.K),
	// contributed by the paths-inputs decider.
	JobPathCensus = "path-census"
	// JobRootedCensus is the rooted-tree census (Spec.Delta, Spec.K,
	// Spec.MaxRadius), contributed by the rooted decider.
	JobRootedCensus = "rooted-census"
)

// CensusRunner is the optional decider capability behind census jobs: a
// decider that can exhaustively enumerate and decide its problem space
// contributes one job type. Implementations run against the engine so
// their per-problem decisions flow through the shared memo cache —
// that is what makes their jobs resumable through snapshots.
type CensusRunner interface {
	// CensusJobType names the job type (stable across releases; job
	// ledgers persist it).
	CensusJobType() string
	// ValidateCensusSpec rejects specs the runner would reject, before
	// they enter the queue — a submission error beats a failed job.
	ValidateCensusSpec(spec jobs.Spec) error
	// RunCensusJob executes the census against the engine's caches.
	RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error)
}

// censusRunners collects the registry's census-capable deciders.
func (e *Engine) censusRunners() map[string]CensusRunner {
	out := map[string]CensusRunner{}
	for _, name := range e.registry.Names() {
		d, _ := e.registry.Get(name)
		if cr, ok := d.(CensusRunner); ok {
			out[cr.CensusJobType()] = cr
		}
	}
	return out
}

// runners builds the engine's job-type table: one generic census runner
// per census-capable decider.
func (e *Engine) runners() map[string]jobs.Runner {
	table := map[string]jobs.Runner{}
	for jobType, cr := range e.censusRunners() {
		cr := cr
		table[jobType] = func(ctx context.Context, spec jobs.Spec, report jobs.Report) (any, error) {
			return cr.RunCensusJob(ctx, e, spec, report)
		}
	}
	return table
}

// ValidateJobSpec rejects specs their runner would reject, before they
// enter the queue.
func (e *Engine) ValidateJobSpec(spec jobs.Spec) error {
	if cr, ok := e.censusRunners()[spec.Type]; ok {
		return cr.ValidateCensusSpec(spec)
	}
	return fmt.Errorf("service: unknown job type %s", quotePrefix(spec.Type, maxQuotedType))
}

// maxQuotedType bounds how much of an unknown job type an error quotes.
const maxQuotedType = 64

// quotePrefix quotes s, or, when s is longer than n bytes, its longest
// prefix of whole runes within n bytes, followed by s's length.
func quotePrefix(s string, n int) string {
	if len(s) <= n {
		return strconv.Quote(s)
	}
	cut := n
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return fmt.Sprintf("%q… (%d bytes)", s[:cut], len(s))
}

// SubmitJob validates and enqueues a job.
func (e *Engine) SubmitJob(spec jobs.Spec) (jobs.Job, error) {
	return e.SubmitJobCtx(context.Background(), spec)
}

// SubmitJobCtx is SubmitJob with a request context: a trace carried in
// ctx stamps its ID onto the job record (Job.RequestID), linking the
// submitting HTTP request to the job's whole lifecycle in logs and the
// jobs API.
func (e *Engine) SubmitJobCtx(ctx context.Context, spec jobs.Spec) (jobs.Job, error) {
	if err := e.ValidateJobSpec(spec); err != nil {
		return jobs.Job{}, err
	}
	return e.jobMgr.SubmitWith(spec, obs.TraceFrom(ctx).ID())
}

// GetJob returns a snapshot of one job.
func (e *Engine) GetJob(id string) (jobs.Job, bool) { return e.jobMgr.Get(id) }

// ListJobs returns snapshots of every known job, newest first.
func (e *Engine) ListJobs() []jobs.Job { return e.jobMgr.List() }

// CancelJob cancels a pending or running job.
func (e *Engine) CancelJob(id string) error { return e.jobMgr.Cancel(id) }

// WatchJob subscribes to a job's event stream (see jobs.Manager.
// Subscribe); call the returned cancel function when done.
func (e *Engine) WatchJob(id string) (<-chan jobs.Event, func(), error) {
	return e.jobMgr.Subscribe(id)
}

// ---------------------------------------------------------------------
// cycles census

// censusJobResult is the JSON shape of a finished census job — the same
// per-class summary the census endpoint serves.
type censusJobResult struct {
	K                  int            `json:"k"`
	Dedup              bool           `json:"dedup"`
	TotalProblems      int            `json:"total_problems"`
	IsomorphismClasses int            `json:"isomorphism_classes,omitempty"`
	Classes            map[string]int `json:"classes"`
	GapHolds           bool           `json:"gap_holds"`
}

func (cyclesDecider) CensusJobType() string { return JobCensus }

func (cyclesDecider) ValidateCensusSpec(spec jobs.Spec) error {
	if spec.K < 1 || spec.K > 3 {
		return fmt.Errorf("service: %s job k = %d out of range [1, 3]", spec.Type, spec.K)
	}
	return nil
}

// RunCensusJob computes the cycle census for the spec, reporting
// progress per classified problem. Partial work lands in the engine's
// memo cache (checkpointed by the jobs manager), and a restored snapshot
// census warm-starts the run, so resumed jobs skip decided problems. The
// run shares the synchronous endpoint's cache and singleflight
// (censusWith), so a concurrent GET /v1/census/{k} coalesces instead of
// duplicating the sweep.
func (cyclesDecider) RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error) {
	report("enumerate", 0, 0)
	c, err := e.censusWith(ctx, spec.K, spec.Dedup, func(done, total int) {
		report("classify", int64(done), int64(total))
	})
	if err != nil {
		return nil, err
	}
	res := censusJobResult{
		K:        c.K,
		Dedup:    c.Dedup,
		Classes:  map[string]int{},
		GapHolds: c.GapHolds(),
	}
	for cl, n := range c.RawByClass {
		res.TotalProblems += n
		res.Classes[cl.String()] = n
	}
	if c.Dedup {
		res.IsomorphismClasses = len(c.Entries)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// path census

// pathCensusJobResult is the JSON shape of a finished path-census job.
type pathCensusJobResult struct {
	K              int         `json:"k"`
	TotalProblems  int         `json:"total_problems"`
	SolvableAll    int         `json:"solvable_all"`
	UnsolvableSome int         `json:"unsolvable_some"`
	ShortestBad    map[int]int `json:"shortest_bad,omitempty"`
}

func (pathsDecider) CensusJobType() string { return JobPathCensus }

func (pathsDecider) ValidateCensusSpec(spec jobs.Spec) error {
	if spec.K < 1 || spec.K > 3 {
		return fmt.Errorf("service: %s job k = %d out of range [1, 3]", spec.Type, spec.K)
	}
	return nil
}

// RunCensusJob computes the path census, memoizing per-problem
// decisions in the engine's cache so checkpoints make it resumable;
// like the cycle census it shares the synchronous endpoint's
// singleflight.
func (pathsDecider) RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error) {
	c, err := e.pathCensusWith(ctx, spec.K, func(done, total int) {
		report("decide", int64(done), int64(total))
	})
	if err != nil {
		return nil, err
	}
	return pathCensusJobResult{
		K:              c.K,
		TotalProblems:  c.Total,
		SolvableAll:    c.SolvableAll,
		UnsolvableSome: c.UnsolvableSome,
		ShortestBad:    c.ShortestBad,
	}, nil
}

// ---------------------------------------------------------------------
// rooted census

// rootedCensusJobResult is the JSON shape of a finished rooted-census
// job.
type rootedCensusJobResult struct {
	Delta         int            `json:"delta"`
	K             int            `json:"k"`
	MaxRadius     int            `json:"max_radius"`
	TotalProblems int            `json:"total_problems"`
	Classes       map[string]int `json:"classes"`
	ByRadius      map[int]int    `json:"by_radius,omitempty"`
}

func (rootedDecider) CensusJobType() string { return JobRootedCensus }

func (rootedDecider) ValidateCensusSpec(spec jobs.Spec) error {
	if spec.Delta < 1 || spec.Delta > 3 {
		return fmt.Errorf("service: rooted-census job delta = %d out of range [1, 3]", spec.Delta)
	}
	if spec.K < 1 || spec.K > 2 {
		return fmt.Errorf("service: rooted-census job k = %d out of range [1, 2]", spec.K)
	}
	if spec.MaxRadius > MaxRootedRadius {
		return fmt.Errorf("service: rooted-census job max_radius = %d out of range [1, %d]", spec.MaxRadius, MaxRootedRadius)
	}
	return nil
}

// RunCensusJob enumerates and classifies the rooted-tree LCL space,
// memoizing every per-problem verdict in the engine's cache under the
// rooted decider's domain. Checkpoints persist the verdicts through the
// snapshot store (rooted records), so an interrupted census resumes
// warm, and API traffic on the same problems hits too.
func (rootedDecider) RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error) {
	maxRadius := spec.MaxRadius
	if maxRadius <= 0 {
		maxRadius = DefaultRootedRadius
	}
	c, err := rooted.RunCensus(spec.Delta, spec.K, rooted.CensusOpts{
		MaxRadius: maxRadius,
		Ctx:       ctx,
		Progress: func(done, total int) {
			report("classify", int64(done), int64(total))
		},
		Classify: RootedMemoClassifier(e.cache, maxRadius),
	})
	if err != nil {
		return nil, err
	}
	res := rootedCensusJobResult{
		Delta:         c.Delta,
		K:             c.K,
		MaxRadius:     c.MaxRadius,
		TotalProblems: len(c.Entries),
		Classes:       map[string]int{},
		ByRadius:      c.ByRadius,
	}
	for cl, n := range c.ByClass {
		res.Classes[cl.String()] = n
	}
	return res, nil
}
