package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/jobs"
	"repro/internal/store"
)

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, e *Engine, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := e.GetJob(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Job{}
}

func TestSubmitJobValidation(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	bad := []jobs.Spec{
		{Type: "nope"},
		{Type: JobCensus, K: 0},
		{Type: JobCensus, K: 4},
		{Type: JobPathCensus, K: 9},
		{Type: JobRootedCensus, Delta: 0, K: 1},
		{Type: JobRootedCensus, Delta: 2, K: 3},
		// The Figure-1 sweep left the job API (cmd/landscape draws it);
		// its old type name is now just another unknown type.
		{Type: "landscape"},
	}
	for _, spec := range bad {
		if _, err := e.SubmitJob(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestCensusJobMatchesDirectRun(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	j, err := e.SubmitJob(jobs.Spec{Type: JobCensus, K: 2, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, e, j.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("job state %s (error %q)", got.State, got.Error)
	}
	var res struct {
		K                  int            `json:"k"`
		TotalProblems      int            `json:"total_problems"`
		IsomorphismClasses int            `json:"isomorphism_classes"`
		Classes            map[string]int `json:"classes"`
		GapHolds           bool           `json:"gap_holds"`
	}
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}
	ref, err := enumerate.Run(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProblems != 64 || res.IsomorphismClasses != len(ref.Entries) || !res.GapHolds {
		t.Errorf("census job result %+v", res)
	}
	for cl, n := range ref.RawByClass {
		if res.Classes[cl.String()] != n {
			t.Errorf("class %s: job %d, direct %d", cl, res.Classes[cl.String()], n)
		}
	}
	// The job's census is now served by the synchronous endpoint too.
	if c, err := e.Census(2, true); err != nil || len(c.Entries) != len(ref.Entries) {
		t.Errorf("census not cached by job: %v", err)
	}
}

func TestPathAndRootedCensusJobs(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()

	pj, err := e.SubmitJob(jobs.Spec{Type: JobPathCensus, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rj, err := e.SubmitJob(jobs.Spec{Type: JobRootedCensus, Delta: 2, K: 1, MaxRadius: 1})
	if err != nil {
		t.Fatal(err)
	}

	got := waitJob(t, e, pj.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("path census job: %s (%s)", got.State, got.Error)
	}
	var pres struct {
		TotalProblems int `json:"total_problems"`
		SolvableAll   int `json:"solvable_all"`
	}
	json.Unmarshal(got.Result, &pres)
	if pres.TotalProblems != 8 { // 2^k endpoint masks x 2^PairCount(1) x 2^PairCount(1)
		t.Errorf("path census total %d, want 8", pres.TotalProblems)
	}

	got = waitJob(t, e, rj.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("rooted census job: %s (%s)", got.State, got.Error)
	}
	var rres struct {
		TotalProblems int            `json:"total_problems"`
		Classes       map[string]int `json:"classes"`
	}
	json.Unmarshal(got.Result, &rres)
	if rres.TotalProblems != 8 {
		t.Errorf("rooted census total %d, want 8", rres.TotalProblems)
	}
}

// TestCensusJobResumeIdenticalAfterInterrupt is the acceptance test for
// the checkpoint/resume contract: a census job interrupted mid-run by a
// process shutdown resumes from the last checkpoint in a new engine and
// produces a result identical to an uninterrupted run — while provably
// skipping the work the first process already did.
func TestCensusJobResumeIdenticalAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.lclsnap")
	ledgerPath := filepath.Join(dir, "ledger.json")

	// Reference: one uninterrupted run, no engine involved.
	ref, err := enumerate.Run(3, false)
	if err != nil {
		t.Fatal(err)
	}

	// Process 1: submit the k=3 census job, let it decide at least
	// minPuts orbits, then shut down — the moral equivalent of kill
	// -TERM. The orbit-representative census finishes a k=3 sweep in
	// milliseconds, so the job is held at that point (heldCensusDecider)
	// until the shutdown interrupts it; otherwise it could finish first.
	const minPuts = 200
	held := make(chan struct{})
	registry := decide.NewRegistry()
	registry.MustRegister(&heldCensusDecider{minPuts: minPuts, held: held})
	e1 := New(Config{Workers: 2, Registry: registry, SnapshotPath: snapPath, JobsLedgerPath: ledgerPath})
	job, err := e1.SubmitJob(jobs.Spec{Type: JobCensus, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(60 * time.Second):
		t.Fatalf("job never decided %d problems", minPuts)
	}
	e1.Close() // interrupts the job, takes a final checkpoint, saves the ledger

	j1, _ := e1.GetJob(job.ID)
	if j1.State != jobs.StateInterrupted {
		t.Fatalf("job state after shutdown %s, want interrupted", j1.State)
	}

	// The checkpoint captured the partial work: every decision the run
	// had made by export time is persisted — at least the minPuts the
	// job was held at. The exact count is scheduling-dependent, so
	// compare against the cache's put counter: up to one in-flight
	// classification per worker may land its put after the final
	// export, so allow that much lag.
	puts := e1.Stats().Cache.Puts
	snap, err := store.Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	const censusWorkers = 2 // Config.Workers above
	persisted := uint64(len(snap.Memo))
	if persisted < minPuts || persisted > puts || puts-persisted > censusWorkers {
		t.Fatalf("checkpoint persisted %d memo entries, want >= %d and ~%d (cache puts, <= %d lag)",
			persisted, minPuts, puts, censusWorkers)
	}

	// Process 2: restore snapshot + ledger; the interrupted job
	// re-enqueues itself and runs to completion.
	ledger, err := jobs.LoadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{
		Workers:        2,
		Snapshot:       snap,
		SnapshotPath:   snapPath,
		JobsLedgerPath: ledgerPath,
		JobsLedger:     ledger,
	})
	defer e2.Close()
	got := waitJob(t, e2, job.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("resumed job state %s (error %q)", got.State, got.Error)
	}
	if got.Attempts != 2 {
		t.Errorf("resumed job attempts %d, want 2", got.Attempts)
	}

	// Warm resume, not a cold redo: every checkpointed decision was
	// served from the cache. The hit counter carries e1's imported
	// lifetime hits, so count only the hits the resumed run made itself.
	if hits := e2.Stats().Cache.Hits - snap.MemoStats.Hits; hits < persisted {
		t.Errorf("resumed run hit the cache %d times, want >= %d (the checkpointed entries)", hits, persisted)
	}

	// The resumed census is identical to the uninterrupted run, row by
	// row: same problems in the same order with the same classification,
	// period, and fingerprint. Witness strings are compared for presence
	// only: the memo cache deliberately shares one result across a whole
	// label-isomorphism class, so which member's diagnostic spelling it
	// carries depends on worker scheduling — in interrupted and
	// uninterrupted runs alike.
	c, err := e2.Census(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Entries) != len(ref.Entries) {
		t.Fatalf("resumed census has %d entries, reference %d", len(c.Entries), len(ref.Entries))
	}
	for i := range ref.Entries {
		a, b := &ref.Entries[i], &c.Entries[i]
		if a.N2Mask != b.N2Mask || a.EMask != b.EMask || a.Orbit != b.Orbit ||
			a.Class != b.Class || a.Period != b.Period ||
			a.Fingerprint != b.Fingerprint {
			t.Fatalf("entry %d differs:\nreference %+v\nresumed   %+v", i, a, b)
		}
		if (a.Witness == "") != (b.Witness == "") {
			t.Fatalf("entry %d witness presence differs: %q vs %q", i, a.Witness, b.Witness)
		}
	}
	for cl, n := range ref.RawByClass {
		if c.RawByClass[cl] != n {
			t.Fatalf("class %s: resumed %d, reference %d", cl, c.RawByClass[cl], n)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	Type string
	Job  jobs.Job
}

// readSSE parses events off an SSE stream until the terminal state
// event or EOF.
func readSSE(t *testing.T, body *bufio.Scanner, max int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var typ string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var j jobs.Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &j); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			events = append(events, sseEvent{Type: typ, Job: j})
			if (typ == "state" && j.State.Terminal()) || len(events) >= max {
				return events
			}
		}
	}
	return events
}

// pacedCensusDecider gates the real cycles census job on a channel, so
// the SSE test provably attaches its stream while the job is still
// running — the orbit-representative census finishes a k=3 sweep in
// single-digit milliseconds, faster than an HTTP round-trip, and an
// ungated job would race the watcher to the terminal state.
type pacedCensusDecider struct {
	cyclesDecider
	attached chan struct{}
}

func (p pacedCensusDecider) RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error) {
	<-p.attached
	return p.cyclesDecider.RunCensusJob(ctx, e, spec, report)
}

// heldCensusDecider runs the real cycles census job, but once the
// engine's memo holds minPuts decisions it closes held and parks every
// further progress report until the job's context is cancelled — so a
// shutdown provably interrupts the census mid-run.
type heldCensusDecider struct {
	cyclesDecider
	minPuts uint64
	held    chan struct{}
	once    sync.Once
}

func (h *heldCensusDecider) RunCensusJob(ctx context.Context, e *Engine, spec jobs.Spec, report jobs.Report) (any, error) {
	return h.cyclesDecider.RunCensusJob(ctx, e, spec, func(phase string, done, total int64) {
		report(phase, done, total)
		if e.cache.Stats().Puts >= h.minPuts {
			h.once.Do(func() { close(h.held) })
			<-ctx.Done()
		}
	})
}

// TestHTTPJobEventsStreamMonotonic is the acceptance test for progress
// streaming: GET /v1/jobs/{id}/events on a running k=3 census job
// delivers monotonically increasing progress and ends with the terminal
// state event. The census is gated on stream attach (pacedCensusDecider)
// so every progress event is emitted while the watcher is subscribed.
func TestHTTPJobEventsStreamMonotonic(t *testing.T) {
	attached := make(chan struct{})
	registry := decide.NewRegistry()
	registry.MustRegister(pacedCensusDecider{attached: attached})
	e := New(Config{Workers: 2, Registry: registry})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body, _ := json.Marshal(jobs.Spec{Type: JobCensus, K: 3})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var job jobs.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	stream, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	// The stream is subscribed (response headers are written after the
	// handler attaches): release the census.
	close(attached)
	events := readSSE(t, bufio.NewScanner(stream.Body), 100000)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}

	var last int64 = -1
	progressEvents := 0
	for _, ev := range events {
		if ev.Type != "progress" {
			continue
		}
		progressEvents++
		if ev.Job.Progress.Done < last {
			t.Fatalf("progress regressed: %d after %d", ev.Job.Progress.Done, last)
		}
		last = ev.Job.Progress.Done
	}
	if progressEvents < 2 {
		t.Errorf("only %d progress events streamed", progressEvents)
	}
	final := events[len(events)-1]
	if final.Type != "state" || final.Job.State != jobs.StateDone {
		t.Fatalf("stream ended with %s/%s, want state/done", final.Type, final.Job.State)
	}
	if final.Job.Progress.Done != 4096 || final.Job.Progress.Total != 4096 {
		t.Errorf("final progress %d/%d, want 4096/4096", final.Job.Progress.Done, final.Job.Progress.Total)
	}
}

// TestCoalescedCallHonorsContext: a caller that coalesces onto another
// caller's in-flight census computation stops waiting when its own
// context is cancelled (the computation itself keeps running and
// publishes) — the property that keeps job cancellation and manager
// shutdown from hanging behind a synchronous census request.
func TestCoalescedCallHonorsContext(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()

	block := make(chan struct{})
	computing := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := cachedCall(e, nil, e.pathCensuses, e.pathCalls, 99, func() (*enumerate.PathCensus, error) {
			close(computing)
			<-block
			return &enumerate.PathCensus{K: 99, Total: 1, SolvableAll: 1}, nil
		})
		first <- err
	}()
	<-computing

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := cachedCall(e, ctx, e.pathCensuses, e.pathCalls, 99, func() (*enumerate.PathCensus, error) {
			t.Error("coalescing caller recomputed")
			return nil, nil
		})
		second <- err
	}()
	cancel()
	select {
	case err := <-second:
		if err != context.Canceled {
			t.Errorf("cancelled coalescer returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled coalescer still blocked behind the in-flight computation")
	}

	close(block)
	if err := <-first; err != nil {
		t.Errorf("original computation failed: %v", err)
	}
}

// TestHTTPJobEventsEndOnStreamShutdown: an open SSE stream for a
// running job ends promptly when the engine's streams are shut down —
// the hook lclserver registers with http.Server.RegisterOnShutdown so a
// graceful drain is not held open by watchers.
func TestHTTPJobEventsEndOnStreamShutdown(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body, _ := json.Marshal(jobs.Spec{Type: JobCensus, K: 3})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job jobs.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	stream, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	done := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
		}
		close(done)
	}()
	e.ShutdownStreams()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5s after ShutdownStreams")
	}
	// The interrupted watcher does not affect the job itself.
	if j, ok := e.GetJob(job.ID); !ok || j.State.Terminal() && j.State != jobs.StateDone {
		t.Errorf("job state after stream shutdown: %+v", j)
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	client := srv.Client()

	// Bad submissions.
	for _, payload := range []string{`{not json`, `{"type":"nope"}`, `{"type":"census","k":9}`,
		`{"type":"landscape","sizes":[64],"seed":1}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", payload, resp.StatusCode)
		}
	}

	// Unknown job.
	resp, _ := http.Get(srv.URL + "/v1/jobs/j999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job GET status %d, want 404", resp.StatusCode)
	}

	// Submit, observe in the list, fetch, wait, cancel-after-done is 409.
	body, _ := json.Marshal(jobs.Spec{Type: JobCensus, K: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job jobs.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	resp, _ = http.Get(srv.URL + "/v1/jobs")
	var list wireJobList
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Errorf("job list %+v", list)
	}

	waitJob(t, e, job.ID)
	resp, _ = http.Get(srv.URL + "/v1/jobs/" + job.ID)
	var got jobs.Job
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != jobs.StateDone || len(got.Result) == 0 {
		t.Errorf("finished job %+v", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+job.ID, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job status %d, want 409", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/j424242", nil)
	resp, _ = client.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job status %d, want 404", resp.StatusCode)
	}
}

func TestStatszCountsJobs(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	j, err := e.SubmitJob(jobs.Spec{Type: JobCensus, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, e, j.ID)
	st := e.Stats()
	if st.Jobs[jobs.StateDone] != 1 {
		t.Errorf("stats jobs %+v, want 1 done", st.Jobs)
	}
}

// TestRootedCensusJobMemoizesAndResumesWarm: the rooted census publishes
// every per-problem verdict into the engine cache under the rooted
// decider's domain, those verdicts survive a snapshot round-trip, and a
// restarted engine re-runs the census entirely from cache — the resume
// contract the cycle census has, now for the rooted family.
func TestRootedCensusJobMemoizesAndResumesWarm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rooted.lclsnap")
	a := New(Config{Workers: 2, SnapshotPath: path})
	j, err := a.SubmitJob(jobs.Spec{Type: JobRootedCensus, Delta: 2, K: 1, MaxRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, a, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state %s: %s", done.State, done.Error)
	}
	putsA := a.Stats().Cache.Puts
	if putsA == 0 {
		t.Fatal("rooted census published nothing to the cache")
	}
	if _, err := a.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	a.Close()

	loaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 2, Snapshot: loaded})
	defer b.Close()
	missesBefore := b.Stats().Cache.Misses
	j2, err := b.SubmitJob(jobs.Spec{Type: JobRootedCensus, Delta: 2, K: 1, MaxRadius: 1})
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitJob(t, b, j2.ID)
	if done2.State != jobs.StateDone {
		t.Fatalf("resumed job state %s: %s", done2.State, done2.Error)
	}
	if misses := b.Stats().Cache.Misses - missesBefore; misses != 0 {
		t.Fatalf("warm rooted census recomputed %d problems", misses)
	}
	// The two runs agree on the result payload.
	r1, _ := json.Marshal(done.Result)
	r2, _ := json.Marshal(done2.Result)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("results differ:\n%s\n%s", r1, r2)
	}
}
