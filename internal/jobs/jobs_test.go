package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitState blocks until the job reaches a terminal state or the
// deadline passes, returning the final snapshot.
func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() && j.State != want {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := New(Config{Runners: map[string]Runner{
		"double": func(ctx context.Context, spec Spec, report Report) (any, error) {
			report("compute", 1, 1)
			return map[string]int{"value": spec.K * 2}, nil
		},
	}})
	defer m.Close()
	j, err := m.Submit(Spec{Type: "double", K: 21})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateDone)
	var res map[string]int
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res["value"] != 42 {
		t.Errorf("result %v, want value 42", res)
	}
	if got.Attempts != 1 || got.StartedUnix == 0 || got.FinishedUnix == 0 {
		t.Errorf("bookkeeping off: %+v", got)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	m := New(Config{Runners: map[string]Runner{}})
	defer m.Close()
	if _, err := m.Submit(Spec{Type: "nope"}); err == nil {
		t.Error("unknown job type accepted")
	}
}

func TestPriorityFIFOOrder(t *testing.T) {
	// One worker; a gate job holds the worker while we enqueue the rest,
	// so the queue order is fully decided before anything else runs.
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	m := New(Config{Workers: 1, Runners: map[string]Runner{
		"gate": func(ctx context.Context, spec Spec, report Report) (any, error) {
			<-gate
			return nil, nil
		},
		"note": func(ctx context.Context, spec Spec, report Report) (any, error) {
			mu.Lock()
			order = append(order, fmt.Sprintf("p%d-k%d", spec.Priority, spec.K))
			mu.Unlock()
			return nil, nil
		},
	}})
	defer m.Close()
	g, _ := m.Submit(Spec{Type: "gate"})
	// Two priorities, two jobs each, submitted interleaved.
	m.Submit(Spec{Type: "note", Priority: 0, K: 1})
	m.Submit(Spec{Type: "note", Priority: 5, K: 1})
	m.Submit(Spec{Type: "note", Priority: 0, K: 2})
	last, _ := m.Submit(Spec{Type: "note", Priority: 5, K: 2})
	close(gate)
	waitState(t, m, g.ID, StateDone)
	waitState(t, m, last.ID, StateDone)
	// last submitted of priority 5 finishes second; wait for the zeros.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"p5-k1", "p5-k2", "p0-k1", "p0-k2"}
	if len(order) != 4 {
		t.Fatalf("ran %d jobs, want 4", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order %v, want %v", order, want)
		}
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	started := make(chan struct{})
	m := New(Config{Workers: 1, Runners: map[string]Runner{
		"block": func(ctx context.Context, spec Spec, report Report) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) {
			return nil, nil
		},
	}})
	defer m.Close()
	running, _ := m.Submit(Spec{Type: "block"})
	pending, _ := m.Submit(Spec{Type: "noop"})
	<-started
	if err := m.Cancel(pending.ID); err != nil {
		t.Fatalf("cancel pending: %v", err)
	}
	if j, _ := m.Get(pending.ID); j.State != StateCancelled {
		t.Errorf("pending job state %s, want cancelled", j.State)
	}
	if err := m.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, m, running.ID, StateCancelled)
	if err := m.Cancel(running.ID); err == nil {
		t.Error("cancelling a terminal job should error")
	}
}

// TestRunnerPanicFailsJob: a panicking runner fails its job and leaves
// the manager (and the process) alive — the next job still runs.
func TestRunnerPanicFailsJob(t *testing.T) {
	m := New(Config{Workers: 1, Runners: map[string]Runner{
		"explode": func(ctx context.Context, spec Spec, report Report) (any, error) {
			panic("boom")
		},
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return nil, nil },
	}})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "explode"})
	got := waitState(t, m, j.ID, StateFailed)
	if got.Error == "" || !strings.Contains(got.Error, "boom") {
		t.Errorf("panic not recorded: %+v", got)
	}
	after, _ := m.Submit(Spec{Type: "noop"})
	waitState(t, m, after.ID, StateDone)
}

func TestRunnerErrorFailsJob(t *testing.T) {
	m := New(Config{Runners: map[string]Runner{
		"boom": func(ctx context.Context, spec Spec, report Report) (any, error) {
			return nil, fmt.Errorf("kaput")
		},
	}})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "boom"})
	got := waitState(t, m, j.ID, StateFailed)
	if got.Error != "kaput" {
		t.Errorf("error %q, want kaput", got.Error)
	}
}

func TestEventsMonotonicProgressAndTerminal(t *testing.T) {
	steps := 50
	m := New(Config{Runners: map[string]Runner{
		"steps": func(ctx context.Context, spec Spec, report Report) (any, error) {
			for i := 1; i <= steps; i++ {
				report("step", int64(i), int64(steps))
			}
			return "ok", nil
		},
	}})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "steps"})
	ch, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var last int64 = -1
	sawProgress := false
	for ev := range ch {
		switch ev.Type {
		case EventProgress:
			sawProgress = true
			if ev.Job.Progress.Done < last {
				t.Fatalf("progress regressed: %d after %d", ev.Job.Progress.Done, last)
			}
			last = ev.Job.Progress.Done
		case EventState:
			if ev.Job.State.Terminal() {
				if ev.Job.State != StateDone {
					t.Fatalf("terminal state %s", ev.Job.State)
				}
				if !sawProgress {
					t.Error("no progress events before completion")
				}
				return
			}
		}
	}
	t.Fatal("event channel closed without a terminal event")
}

func TestSubscribeTerminalJobGetsSnapshot(t *testing.T) {
	m := New(Config{Runners: map[string]Runner{
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return 7, nil },
	}})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "noop"})
	waitState(t, m, j.ID, StateDone)
	ch, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ev := <-ch
	if ev.Type != EventState || ev.Job.State != StateDone {
		t.Errorf("initial event %v / %s, want state/done", ev.Type, ev.Job.State)
	}
}

func TestSlowSubscriberKeepsNewest(t *testing.T) {
	steps := subscriberBuffer * 10
	release := make(chan struct{})
	m := New(Config{Runners: map[string]Runner{
		"steps": func(ctx context.Context, spec Spec, report Report) (any, error) {
			<-release
			for i := 1; i <= steps; i++ {
				report("step", int64(i), int64(steps))
			}
			return nil, nil
		},
	}})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "steps"})
	ch, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(release)
	waitState(t, m, j.ID, StateDone)
	// Drain whatever survived the overflow: the terminal state event must
	// be there even though most progress events were dropped.
	sawTerminal := false
	for {
		select {
		case ev := <-ch:
			if ev.Type == EventState && ev.Job.State == StateDone {
				sawTerminal = true
			}
			continue
		default:
		}
		break
	}
	if !sawTerminal {
		t.Error("terminal event lost to a slow subscriber")
	}
}

func TestCheckpointFiresWhileRunning(t *testing.T) {
	var checkpoints atomic.Int64
	release := make(chan struct{})
	m := New(Config{
		Checkpoint:      func() error { checkpoints.Add(1); return nil },
		CheckpointEvery: 5 * time.Millisecond,
		Runners: map[string]Runner{
			"slow": func(ctx context.Context, spec Spec, report Report) (any, error) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return nil, nil
			},
		},
	})
	defer m.Close()
	j, _ := m.Submit(Spec{Type: "slow"})
	deadline := time.Now().Add(5 * time.Second)
	for checkpoints.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	got := waitState(t, m, j.ID, StateDone)
	if checkpoints.Load() < 2 {
		t.Errorf("only %d checkpoints fired", checkpoints.Load())
	}
	if got.CheckpointUnix == 0 {
		t.Error("CheckpointUnix never recorded")
	}
}

func TestLedgerRoundTripAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.json")

	block := make(chan struct{})
	started := make(chan struct{}, 8)
	runners := map[string]Runner{
		"block": func(ctx context.Context, spec Spec, report Report) (any, error) {
			started <- struct{}{}
			select {
			case <-block:
				return "finished", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return "ok", nil },
	}

	m1 := New(Config{Workers: 1, LedgerPath: path, Runners: runners})
	done, _ := m1.Submit(Spec{Type: "noop"})
	waitState(t, m1, done.ID, StateDone)
	running, _ := m1.Submit(Spec{Type: "block"})
	pending, _ := m1.Submit(Spec{Type: "noop", Priority: -1})
	<-started
	m1.Close() // interrupts the running job, persists the ledger

	l, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.NextSeq < 3 {
		t.Errorf("NextSeq %d, want >= 3", l.NextSeq)
	}
	states := map[string]State{}
	for _, j := range l.Jobs {
		states[j.ID] = j.State
	}
	if states[done.ID] != StateDone {
		t.Errorf("done job persisted as %s", states[done.ID])
	}
	if states[running.ID] != StateInterrupted {
		t.Errorf("running job persisted as %s, want interrupted", states[running.ID])
	}
	if states[pending.ID] != StatePending {
		t.Errorf("pending job persisted as %s, want pending", states[pending.ID])
	}

	// Second process: unfinished jobs re-enqueue and now complete.
	close(block)
	m2 := New(Config{Workers: 1, LedgerPath: path, Ledger: l, Runners: runners})
	defer m2.Close()
	got := waitState(t, m2, running.ID, StateDone)
	if got.Attempts != 2 {
		t.Errorf("resumed job attempts %d, want 2", got.Attempts)
	}
	waitState(t, m2, pending.ID, StateDone)
	// Completed history is still visible and untouched.
	if j, ok := m2.Get(done.ID); !ok || j.State != StateDone {
		t.Errorf("finished job lost across restart: %+v", j)
	}
	// New submissions never reuse an ID.
	fresh, _ := m2.Submit(Spec{Type: "noop"})
	if fresh.ID == done.ID || fresh.ID == running.ID || fresh.ID == pending.ID {
		t.Errorf("job ID %s reused after restart", fresh.ID)
	}
}

// TestRestoreUnknownTypeFailsJob: a ledger naming a job type this
// process has no runner for (newer binary, foreign file) must not hand
// the worker a nil runner — the job fails visibly at restore instead.
func TestRestoreUnknownTypeFailsJob(t *testing.T) {
	ledger := &Ledger{
		Version: LedgerVersion,
		NextSeq: 2,
		Jobs: []Job{
			{ID: "j000000", Seq: 0, Spec: Spec{Type: "from-the-future"}, State: StateRunning},
			{ID: "j000001", Seq: 1, Spec: Spec{Type: "noop"}, State: StatePending},
		},
	}
	m := New(Config{Ledger: ledger, Runners: map[string]Runner{
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return nil, nil },
	}})
	defer m.Close()
	if j, ok := m.Get("j000000"); !ok || j.State != StateFailed || j.Error == "" {
		t.Errorf("unknown-type job restored as %+v, want failed with error", j)
	}
	waitState(t, m, "j000001", StateDone)

	// A ledger written before the landscape job type left the server
	// still loads: the spec's dropped fields are ignored, and restore
	// fails the job it has no runner for.
	path := filepath.Join(t.TempDir(), "ledger.json")
	old := `{"version":1,"next_seq":1,"jobs":[{"id":"j000000","seq":0,` +
		`"spec":{"type":"landscape","sizes":[64],"seed":1},"state":"pending","progress":{"done":0},"attempts":0,"created_unix":1}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLedger(path)
	if err != nil {
		t.Fatalf("ledger naming a retired job type rejected: %v", err)
	}
	m2 := New(Config{Ledger: loaded, Runners: map[string]Runner{
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return nil, nil },
	}})
	defer m2.Close()
	if j, ok := m2.Get("j000000"); !ok || j.State != StateFailed || !strings.Contains(j.Error, `"landscape"`) {
		t.Errorf("retired-type job restored as %+v, want failed naming the type", j)
	}
}

func TestLoadLedgerRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.json")
	if _, err := LoadLedger(path); !os.IsNotExist(err) {
		t.Errorf("missing ledger: %v, want IsNotExist", err)
	}
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := LoadLedger(path); err == nil {
		t.Error("damaged ledger accepted")
	}
	os.WriteFile(path, []byte(`{"version": 99}`), 0o644)
	if _, err := LoadLedger(path); err == nil {
		t.Error("foreign ledger version accepted")
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	m := New(Config{Runners: map[string]Runner{
		"noop": func(ctx context.Context, spec Spec, report Report) (any, error) { return nil, nil },
	}})
	m.Close()
	if _, err := m.Submit(Spec{Type: "noop"}); err == nil {
		t.Error("submit after close accepted")
	}
}
