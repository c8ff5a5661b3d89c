// The in-process load generator: engines behind service.NewHandler, closed-loop
// clients calling ServeHTTP directly (no sockets), response checks that
// cost nothing in steady state, and the end-to-end measurements.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// server is one engine and its HTTP handler over an opened sealed table.
type server struct {
	engine  *service.Engine
	sealed  *store.SealedTable
	handler http.Handler
}

// boot is the timed set-up: open the sealed artifact, start an engine
// and, for hit workloads, serve every item once.
func boot(w *workload, sealedPath string) (*server, error) {
	t, err := store.OpenSealedMapped(sealedPath)
	if err != nil {
		return nil, fmt.Errorf("open sealed artifact: %w", err)
	}
	s := &server{sealed: t, engine: newEngine(w, t)}
	s.handler = service.NewHandler(s.engine)
	if w.warm {
		c := newClient(s.handler, "/v1/classify", 0)
		for _, it := range w.items {
			if status := c.serve(it.body); status != http.StatusOK {
				s.close()
				return nil, fmt.Errorf("warm-up %s/%s: status %d: %s", it.mode, it.name, status, c.w.body)
			}
		}
	}
	return s, nil
}

// newEngine starts an engine over sealed table t with the workload's
// memo size.
func newEngine(w *workload, t *store.SealedTable) *service.Engine {
	return service.New(service.Config{Sealed: t, CacheShards: w.memoShards, CacheCapacity: w.memoCap})
}

func (s *server) close() {
	s.engine.Close()
	_ = s.sealed.Close() // read-only mapping
}

// discardWriter is a reusable ResponseWriter that keeps the status and
// the body for checking.
type discardWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client owns one reusable request and writer, and its latency samples.
type client struct {
	h    http.Handler
	req  *http.Request
	body *bodyReader
	w    *discardWriter
	lat  []int64 // nanoseconds per request, preallocated
}

func newClient(h http.Handler, path string, latCap int) *client {
	body := &bodyReader{}
	req, err := http.NewRequest(http.MethodPost, path, body)
	if err != nil {
		panic(err) // a constant route always parses
	}
	req.Header.Set("Content-Type", "application/json")
	return &client{
		h: h, req: req, body: body,
		w:   &discardWriter{header: http.Header{}},
		lat: make([]int64, 0, latCap),
	}
}

// serve posts one body and returns the status; the response is in c.w.
func (c *client) serve(b []byte) int {
	c.body.Reset(b)
	c.req.ContentLength = int64(len(b))
	clear(c.w.header)
	c.w.status, c.w.body = 0, c.w.body[:0]
	c.h.ServeHTTP(c.w, c.req)
	return c.w.status
}

// check compares a response with the validated reference; anything else
// is decoded and checked against the oracle.
func (c *client) check(w *workload, r *request) bool {
	if c.w.status == http.StatusOK && bytes.Equal(c.w.body, r.ref) {
		return true
	}
	return verify(w, r, c.w.status, c.w.body) == nil
}

// verify checks one response against the oracle: status 200, the
// expected class for every item and, for a batch, the expected number
// of deduplicated items.
func verify(w *workload, r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	type result struct {
		Class string `json:"class"`
		Error string `json:"error"`
	}
	var got []result
	if len(r.items) == 1 && r.dedup == 0 {
		var one result
		if err := json.Unmarshal(body, &one); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		got = []result{one}
	} else {
		var batch struct {
			Results []result `json:"results"`
			Deduped int      `json:"deduped"`
		}
		if err := json.Unmarshal(body, &batch); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		if batch.Deduped != r.dedup {
			return fmt.Errorf("batch deduplicated %d of %d items, want %d", batch.Deduped, len(r.items), r.dedup)
		}
		got = batch.Results
	}
	if len(got) != len(r.items) {
		return fmt.Errorf("%d results for %d items", len(got), len(r.items))
	}
	for j, i := range r.items {
		it := w.items[i]
		if got[j].Class != it.expect {
			return fmt.Errorf("%s/%s: class %q (error %q), oracle says %q", it.mode, it.name, got[j].Class, got[j].Error, it.expect)
		}
	}
	return nil
}

// validate serves every request once, in the clients' replay order,
// checks it against the oracle and keeps the response bytes as the
// reference for the timed phase. Replay order keeps the memo state of a
// cold workload what the timed phase expects: each key's last use lies
// a whole sequence back.
func validate(w *workload, h http.Handler) error {
	c := newClient(h, w.path, 0)
	for _, r := range w.inReplayOrder() {
		status := c.serve(r.body)
		if err := verify(w, r, status, c.w.body); err != nil {
			return err
		}
		r.ref = slices.Clone(c.w.body)
	}
	return nil
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	requests, failed, items int
	elapsed                 time.Duration
	lat                     []int64
	mallocs, allocBytes     uint64
	gcs                     uint32
	gcPause                 time.Duration
	heapLive                uint64 // live heap after heapAt requests, 0 if not read
	// The phase cut into windows equal parts: the items per second and
	// the sorted latency samples of each part.
	winRate []float64
	winLat  [][]int64
}

// windows is the number of equal parts a phase is cut into.
const windows = 8

// mark is a client's request count and (untimed pauses excluded) time
// into the phase at the end of a window.
type mark struct {
	n  int
	at time.Duration
}

// run drives clients closed-loop against h for d: client i replays
// w.seq[i] cyclically from its cursor, timing every ServeHTTP call.
// Cursors carry over between phases, so a key's reuse distance never
// shrinks at a phase boundary. With one client and heapAt > 0, the
// client stops the clock after heapAt requests, reads the live heap
// after a forced GC and goes on; the pause is not timed.
func run(w *workload, h http.Handler, clients int, d time.Duration, heapAt int) phase {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(h, w.path, w.latCap*int(d/time.Second+1))
	}
	fails := make([]int, clients)
	if clients != 1 {
		heapAt = 0 // a pause would stop one client only
	}
	var heapLive uint64
	var paused time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	marks := make([][]mark, clients)
	for i, c := range cs {
		seq := w.seq[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := w.cursor[i]; ; n++ {
				r := w.reqs[seq[n%len(seq)]]
				t0 := time.Now()
				c.serve(r.body)
				t1 := time.Now()
				c.lat = append(c.lat, int64(t1.Sub(t0)))
				if !c.check(w, r) {
					fails[i]++
				}
				for at := t1.Sub(start) - paused; len(marks[i]) < windows && at >= time.Duration(len(marks[i])+1)*d/windows; {
					marks[i] = append(marks[i], mark{len(c.lat), at})
				}
				if len(c.lat) == heapAt {
					heapLive = liveHeap()
					paused = time.Since(t1)
					deadline = deadline.Add(paused)
				}
				if t1.After(deadline) {
					w.cursor[i] = (n + 1) % len(seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) - paused
	runtime.ReadMemStats(&ms1)
	p := phase{
		heapLive:   heapLive,
		elapsed:    elapsed,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcs:        ms1.NumGC - ms0.NumGC,
		gcPause:    time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}
	per := 1
	if w.path == "/v1/classify/batch" {
		per = batchSize
	}
	for k := range windows {
		var rate float64
		var lat []int64
		for i, c := range cs {
			from := mark{}
			if k > 0 {
				from = marks[i][k-1]
			}
			to := marks[i][k]
			rate += float64((to.n-from.n)*per) / (to.at - from.at).Seconds()
			lat = append(lat, c.lat[from.n:to.n]...)
		}
		slices.Sort(lat)
		p.winRate = append(p.winRate, rate)
		p.winLat = append(p.winLat, lat)
	}
	for i, c := range cs {
		p.requests += len(c.lat)
		p.failed += fails[i]
		p.lat = append(p.lat, c.lat...)
		c.lat = nil
	}
	p.items = p.requests * per
	return p
}

func (p phase) itemsPerSec() float64 { return float64(p.items) / p.elapsed.Seconds() }

// quantile returns the median over the windows of each window's
// q-quantile latency in milliseconds, and the fewest samples above it in
// any window.
func (p phase) quantile(q float64) (ms float64, beyond int) {
	per := make([]float64, len(p.winLat))
	beyond = math.MaxInt
	for k, lat := range p.winLat {
		var b int
		per[k], b = percentile(lat, q)
		beyond = min(beyond, b)
	}
	return median(per), beyond
}

// percentile returns the nearest-rank q-quantile of sorted samples in
// milliseconds and the number of samples above it.
func percentile(sorted []int64, q float64) (ms float64, beyond int) {
	rank := max(1, int(math.Ceil(q*float64(len(sorted)))))
	return float64(sorted[rank-1]) / 1e6, len(sorted) - rank
}

// loadgenAllocs measures the client loop's own allocations per request
// against a handler that only writes a fixed response.
func loadgenAllocs() float64 {
	const n = 20000
	resp := []byte(`{"class":"O(1)"}`)
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(resp) })
	w := &workload{path: "/v1/classify", reqs: []*request{{body: resp, items: []int{0}, ref: resp}}}
	c := newClient(noop, w.path, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		r := w.reqs[0]
		t0 := time.Now()
		c.serve(r.body)
		c.lat = append(c.lat, int64(time.Since(t0)))
		c.check(w, r)
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / n
}

// liveHeap returns the heap in use after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
