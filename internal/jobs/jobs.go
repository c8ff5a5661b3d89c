// Package jobs is the asynchronous job orchestration layer: it runs
// long-running work (censuses) as background jobs with a bounded worker
// pool, a priority FIFO queue, per-job cancellation, structured progress
// reporting, periodic checkpointing, and a persistent ledger so a
// killed process re-enqueues interrupted jobs at the next boot.
//
// The package is deliberately engine-agnostic: a job type is just a name
// mapped to a Runner, and checkpointing is an opaque callback. The
// service layer (internal/service) wires the runners to the
// classification engine and the checkpoint to its snapshot save, which
// gives the resume contract its teeth: a runner that publishes partial
// results into the engine's memo cache as it goes (enumerate.RunWith,
// enumerate.RunPathsWith) loses at most one checkpoint interval of work
// to a crash — the re-enqueued job re-runs against the warm cache and
// skips everything already decided.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

// The job lifecycle. Pending -> Running -> one of Done / Failed /
// Cancelled / Interrupted; Interrupted jobs (the process shut down under
// them) return to Pending when the ledger is reloaded.
const (
	StatePending     State = "pending"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final for this process. An
// interrupted job is terminal here but resumes in the next process.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Spec describes one job: its type plus the union of per-type
// parameters. Unknown fields for a type are ignored by its runner.
type Spec struct {
	// Type selects the runner ("census", "path-census" or
	// "rooted-census" in the service wiring).
	Type string `json:"type"`
	// K is the alphabet size (census, path-census, rooted-census).
	K int `json:"k,omitempty"`
	// Dedup selects canonical deduplication (census).
	Dedup bool `json:"dedup,omitempty"`
	// Delta is the child count (rooted-census).
	Delta int `json:"delta,omitempty"`
	// MaxRadius bounds anonymous synthesis (rooted-census).
	MaxRadius int `json:"max_radius,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities run
	// in submission order (FIFO).
	Priority int `json:"priority,omitempty"`
}

// Progress is a job's structured progress.
type Progress struct {
	// Phase names the current stage (e.g. "classify", "trees").
	Phase string `json:"phase,omitempty"`
	// Done / Total count work items; Total is 0 when unknown.
	Done  int64 `json:"done"`
	Total int64 `json:"total,omitempty"`
	// ETASeconds extrapolates the remaining time from the observed rate
	// (0 when unknown).
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// Job is one job's full observable record. Copies returned by the
// manager are snapshots; mutating them does not affect the manager.
type Job struct {
	ID   string `json:"id"`
	Seq  uint64 `json:"seq"`
	Spec Spec   `json:"spec"`
	// RequestID links the job to the HTTP request (trace ID) that
	// submitted it, so the submitting request's trace in /debug/tracez
	// and the job's lifecycle can be correlated.
	RequestID string `json:"request_id,omitempty"`

	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// Result is the JSON-encoded job result (set when State is done).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure reason (set when State is failed).
	Error string `json:"error,omitempty"`
	// Attempts counts runs including resumptions after interruption.
	Attempts int `json:"attempts"`

	CreatedUnix  int64 `json:"created_unix"`
	StartedUnix  int64 `json:"started_unix,omitempty"`
	FinishedUnix int64 `json:"finished_unix,omitempty"`
	// CheckpointUnix is the time of the job's last successful checkpoint.
	CheckpointUnix int64 `json:"checkpoint_unix,omitempty"`
}

// EventType tags a job event.
type EventType string

// Event types: "state" on every lifecycle transition (including the
// initial snapshot a new subscription receives), "progress" on progress
// updates, "checkpoint" after each successful checkpoint.
const (
	EventState      EventType = "state"
	EventProgress   EventType = "progress"
	EventCheckpoint EventType = "checkpoint"
)

// Event is one fan-out notification: the event type plus a full snapshot
// of the job at emission time.
type Event struct {
	Type EventType `json:"type"`
	Job  Job       `json:"job"`
}

// Report is the progress callback handed to runners. Runners call it
// from any goroutine; done/total of 0 leave the previous values.
type Report func(phase string, done, total int64)

// Runner executes one job type. It must honor ctx (return ctx.Err() when
// cancelled) and should call report as work progresses. The returned
// value is JSON-marshalled into Job.Result.
type Runner func(ctx context.Context, spec Spec, report Report) (any, error)

// Config configures a Manager.
type Config struct {
	// Workers bounds concurrently running jobs (<= 0 selects 1: job
	// runners are internally parallel already, so one at a time is the
	// conservative default).
	Workers int
	// Runners maps job types to their runners. Submit rejects types
	// without a runner.
	Runners map[string]Runner
	// Checkpoint, when non-nil, is invoked periodically while jobs run
	// (and once after every interruption), persisting whatever partial
	// state the runners have published. Failures are recorded but never
	// fail the job.
	Checkpoint func() error
	// CheckpointEvery is the checkpoint interval (default 15s; only
	// meaningful with Checkpoint set).
	CheckpointEvery time.Duration
	// LedgerPath, when non-empty, persists the job ledger on every state
	// transition, atomically.
	LedgerPath string
	// Ledger, when non-nil, seeds the manager from a previously saved
	// ledger: finished jobs stay visible, pending / running / interrupted
	// jobs are re-enqueued (with Attempts incremented for those that had
	// started).
	Ledger *Ledger
	// Logger receives structured job lifecycle records (submissions,
	// state transitions, checkpoint failures). Nil discards them.
	Logger *slog.Logger
	// OnCheckpoint, when non-nil, observes every checkpoint attempt with
	// its duration and outcome (the observability layer feeds a
	// checkpoint-duration histogram from it).
	OnCheckpoint func(d time.Duration, err error)
}

// DefaultCheckpointEvery is the checkpoint interval when Config leaves
// it zero.
const DefaultCheckpointEvery = 15 * time.Second

// Manager runs jobs. It is safe for concurrent use.
type Manager struct {
	cfg Config
	log *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*record
	queue   *queue
	nextSeq uint64
	closed  bool

	// The ledger writer (see ledger.go): pendingLedger holds the newest
	// unwritten snapshot, ledgerWriting whether the writer goroutine is
	// live. Guarded by ledgerMu, never by mu, so ledger I/O cannot stall
	// the hot paths.
	ledgerMu      sync.Mutex
	pendingLedger *Ledger
	ledgerWriting bool
	ledgerWG      sync.WaitGroup

	wg sync.WaitGroup
}

// record is the manager's internal job state: the public snapshot plus
// control handles.
type record struct {
	job    Job
	cancel context.CancelFunc // non-nil while running
	// userCancelled distinguishes DELETE-driven cancellation from
	// shutdown-driven interruption.
	userCancelled bool
	subs          []*subscriber
}

type subscriber struct {
	ch chan Event
}

// subscriberBuffer is each subscriber's channel capacity; on overflow
// the oldest event is dropped so the newest (including the terminal
// state event) always lands.
const subscriberBuffer = 16

// New starts a manager: restores the ledger, re-enqueues unfinished
// jobs, and launches the worker pool.
func New(cfg Config) *Manager {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := &Manager{
		cfg:   cfg,
		log:   logger,
		jobs:  map[string]*record{},
		queue: newQueue(),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Ledger != nil {
		m.restore(cfg.Ledger)
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.work()
	}
	return m
}

// restore seeds the manager from a saved ledger (called before the
// workers start, so no locking needed).
func (m *Manager) restore(l *Ledger) {
	m.nextSeq = l.NextSeq
	// Replay in seq order so FIFO ties resolve as they originally would.
	js := append([]Job(nil), l.Jobs...)
	sort.Slice(js, func(i, j int) bool { return js[i].Seq < js[j].Seq })
	for _, j := range js {
		if j.Seq >= m.nextSeq {
			m.nextSeq = j.Seq + 1
		}
		rec := &record{job: j}
		switch j.State {
		case StatePending, StateRunning, StateInterrupted:
			if _, ok := m.cfg.Runners[j.Spec.Type]; !ok {
				// A ledger from a newer binary (or a foreign one) can name
				// job types this process has no runner for; enqueueing one
				// would hand the worker a nil runner. Fail it visibly
				// instead.
				rec.job.State = StateFailed
				rec.job.Error = fmt.Sprintf("no runner for job type %q in this process", j.Spec.Type)
				rec.job.FinishedUnix = time.Now().Unix()
				break
			}
			// Attempts is incremented by the worker at each start, so a
			// re-enqueued job counts its resumption there, not here.
			rec.job.State = StatePending
			rec.job.Progress = Progress{Phase: "resumed"}
			rec.job.StartedUnix = 0
			rec.job.FinishedUnix = 0
			m.queue.push(rec)
		}
		m.jobs[j.ID] = rec
	}
}

// Submit enqueues a job for the given spec and returns its snapshot.
func (m *Manager) Submit(spec Spec) (Job, error) { return m.SubmitWith(spec, "") }

// SubmitWith is Submit plus the submitting request's trace ID, recorded
// on the job so its lifecycle links back to the request that created it
// (see Job.RequestID).
func (m *Manager) SubmitWith(spec Spec, requestID string) (Job, error) {
	if _, ok := m.cfg.Runners[spec.Type]; !ok {
		return Job{}, fmt.Errorf("jobs: unknown job type %q", spec.Type)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, fmt.Errorf("jobs: manager closed")
	}
	seq := m.nextSeq
	m.nextSeq++
	rec := &record{job: Job{
		ID:          fmt.Sprintf("j%06d", seq),
		Seq:         seq,
		Spec:        spec,
		RequestID:   requestID,
		State:       StatePending,
		CreatedUnix: time.Now().Unix(),
	}}
	m.jobs[rec.job.ID] = rec
	m.queue.push(rec)
	m.notifyLocked(rec, EventState)
	job := rec.job
	m.saveLedgerLocked()
	m.cond.Signal()
	m.mu.Unlock()
	m.log.Info("job submitted", "id", job.ID, "type", spec.Type, "priority", spec.Priority, "request_id", requestID)
	return job, nil
}

// Counts is a point-in-time census of the manager's jobs for
// monitoring: queue depth, running jobs, and per-state totals.
type Counts struct {
	// QueueDepth is the number of jobs waiting in the priority queue.
	QueueDepth int
	// Running is the number of jobs currently executing.
	Running int
	// ByState counts every known job by lifecycle state.
	ByState map[State]int
}

// Counts snapshots the job population (one lock acquisition).
func (m *Manager) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := Counts{QueueDepth: m.queue.len(), ByState: map[State]int{}}
	for _, rec := range m.jobs {
		c.ByState[rec.job.State]++
		if rec.job.State == StateRunning {
			c.Running++
		}
	}
	return c
}

// checkpoint runs the configured checkpoint callback, timing it,
// feeding the OnCheckpoint observer, and logging failures — a silent
// checkpoint failure would quietly void the resume contract.
func (m *Manager) checkpoint() error {
	start := time.Now()
	err := m.cfg.Checkpoint()
	if m.cfg.OnCheckpoint != nil {
		m.cfg.OnCheckpoint(time.Since(start), err)
	}
	if err != nil {
		m.log.Warn("checkpoint failed", "error", err, "duration_ms", float64(time.Since(start).Microseconds())/1000)
	}
	return err
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return rec.job, true
}

// List returns snapshots of every known job, newest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, rec := range m.jobs {
		out = append(out, rec.job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Cancel cancels a job: a pending job is removed from the queue, a
// running job's context is cancelled (the runner unwinds). Cancelling a
// terminal job is an error.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	switch rec.job.State {
	case StatePending:
		m.queue.remove(rec)
		rec.job.State = StateCancelled
		rec.job.FinishedUnix = time.Now().Unix()
		m.notifyLocked(rec, EventState)
		m.saveLedgerLocked()
		return nil
	case StateRunning:
		rec.userCancelled = true
		rec.cancel()
		return nil
	default:
		return fmt.Errorf("jobs: job %q already %s", id, rec.job.State)
	}
}

// Subscribe attaches to a job's event stream. The channel immediately
// receives a state event with the job's current snapshot (so terminal
// jobs are observable without racing), then every subsequent event until
// the returned cancel function is called. Slow consumers lose oldest
// events first, never the newest.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("jobs: no job %q", id)
	}
	sub := &subscriber{ch: make(chan Event, subscriberBuffer)}
	sub.ch <- Event{Type: EventState, Job: rec.job}
	rec.subs = append(rec.subs, sub)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, s := range rec.subs {
			if s == sub {
				rec.subs = append(rec.subs[:i], rec.subs[i+1:]...)
				break
			}
		}
	}
	return sub.ch, cancel, nil
}

// notifyLocked fans an event out to the job's subscribers. Callers hold
// m.mu; sends are non-blocking with drop-oldest overflow, which is safe
// because every send happens under the same lock.
func (m *Manager) notifyLocked(rec *record, typ EventType) {
	ev := Event{Type: typ, Job: rec.job}
	for _, sub := range rec.subs {
		for {
			select {
			case sub.ch <- ev:
			default:
				select {
				case <-sub.ch: // drop oldest, retry
				default:
				}
				continue
			}
			break
		}
	}
}

// Close stops the manager: running jobs are interrupted (their runners
// see a cancelled context), a final checkpoint is taken, and the ledger
// is saved so the next process resumes the unfinished work. Close waits
// for the workers to unwind.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	interrupting := false
	for _, rec := range m.jobs {
		if rec.job.State == StateRunning && rec.cancel != nil {
			interrupting = true
			rec.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()

	// Workers have unwound: every interrupted job has transitioned. Take
	// a final checkpoint so the interrupted partial work persists, then
	// save the ledger. An idle close skips the checkpoint — there is no
	// partial work, and callers (cmd/lclserver) typically snapshot right
	// after anyway.
	if interrupting && m.cfg.Checkpoint != nil {
		_ = m.checkpoint()
	}
	m.mu.Lock()
	m.saveLedgerLocked()
	m.mu.Unlock()
	// Flush the ledger writer: after Close the final ledger is on disk.
	m.ledgerWG.Wait()
}

// work is one worker's loop: pop the highest-priority job, run it.
func (m *Manager) work() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		rec := m.queue.pop()
		ctx, cancel := context.WithCancel(context.Background())
		rec.cancel = cancel
		rec.job.State = StateRunning
		rec.job.Attempts++
		rec.job.StartedUnix = time.Now().Unix()
		rec.job.Progress.Phase = "starting"
		m.notifyLocked(rec, EventState)
		m.saveLedgerLocked()
		spec := rec.job.Spec
		id, attempt := rec.job.ID, rec.job.Attempts
		runner := m.cfg.Runners[spec.Type]
		m.mu.Unlock()

		m.log.Info("job started", "id", id, "type", spec.Type, "attempt", attempt)
		m.run(ctx, cancel, rec, runner, spec)
	}
}

// run executes one job to a terminal state.
func (m *Manager) run(ctx context.Context, cancel context.CancelFunc, rec *record, runner Runner, spec Spec) {
	defer cancel()

	// Periodic checkpointing while the job runs.
	var ckDone chan struct{}
	if m.cfg.Checkpoint != nil {
		ckDone = make(chan struct{})
		go func() {
			ticker := time.NewTicker(m.cfg.CheckpointEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					close(ckDone)
					return
				case <-ticker.C:
					if err := m.checkpoint(); err == nil {
						m.mu.Lock()
						rec.job.CheckpointUnix = time.Now().Unix()
						m.notifyLocked(rec, EventCheckpoint)
						m.saveLedgerLocked()
						m.mu.Unlock()
					}
				}
			}
		}()
	}

	started := time.Now()
	report := func(phase string, done, total int64) {
		m.mu.Lock()
		p := &rec.job.Progress
		if done > 0 || total > 0 {
			// Concurrent runner workers can deliver reports out of order
			// (worker A increments the counter, worker B increments it
			// again and wins the race to this lock). Within one phase —
			// same total — a stale lower count carries no information, so
			// drop it instead of publishing regressing progress.
			if total == p.Total && done < p.Done {
				m.mu.Unlock()
				return
			}
			p.Done, p.Total = done, total
		}
		if phase != "" {
			p.Phase = phase
		}
		if p.Total > 0 && p.Done > 0 && p.Done < p.Total {
			elapsed := time.Since(started).Seconds()
			p.ETASeconds = elapsed / float64(p.Done) * float64(p.Total-p.Done)
		} else {
			p.ETASeconds = 0
		}
		m.notifyLocked(rec, EventProgress)
		m.mu.Unlock()
	}

	// A panicking runner must not take down the process (and, via the
	// ledger's re-enqueue-at-boot, crash-loop the next one): confine the
	// blast radius to this job by converting the panic into a failure.
	panicked := false
	result, err := func() (res any, rerr error) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				rerr = fmt.Errorf("runner panic: %v", r)
			}
		}()
		return runner(ctx, spec, report)
	}()
	// Read the cancellation state before cancel() below makes it
	// indistinguishable from a clean finish.
	interrupted := ctx.Err() != nil
	cancel()
	if ckDone != nil {
		<-ckDone
	}

	m.mu.Lock()
	rec.cancel = nil
	rec.job.FinishedUnix = time.Now().Unix()
	switch {
	case err == nil:
		data, merr := json.Marshal(result)
		if merr != nil {
			rec.job.State = StateFailed
			rec.job.Error = fmt.Sprintf("encode result: %v", merr)
		} else {
			rec.job.State = StateDone
			rec.job.Result = data
			rec.job.Progress.ETASeconds = 0
		}
	case panicked:
		// A panic is a failure even when the context also happened to be
		// cancelled — it must never be re-enqueued as interrupted.
		rec.job.State = StateFailed
		rec.job.Error = err.Error()
	case interrupted && rec.userCancelled:
		rec.job.State = StateCancelled
	case interrupted && m.closed:
		rec.job.State = StateInterrupted
	case interrupted:
		// Cancelled but neither by the user nor by shutdown: treat as
		// cancelled (defensive; no third cancel source exists today).
		rec.job.State = StateCancelled
	default:
		rec.job.State = StateFailed
		rec.job.Error = err.Error()
	}
	m.notifyLocked(rec, EventState)
	m.saveLedgerLocked()
	state, errMsg := rec.job.State, rec.job.Error
	elapsed := rec.job.FinishedUnix - rec.job.StartedUnix
	m.mu.Unlock()
	if state == StateFailed {
		m.log.Warn("job finished", "id", rec.job.ID, "type", spec.Type, "state", string(state), "error", errMsg, "elapsed_s", elapsed)
	} else {
		m.log.Info("job finished", "id", rec.job.ID, "type", spec.Type, "state", string(state), "elapsed_s", elapsed)
	}
}
