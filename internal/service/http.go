// HTTP/JSON transport for the classification engine: the handlers behind
// cmd/lclserver. Problem payloads use the symbolic JSON codec of
// internal/lcl (label names, self-describing, stable under reordering),
// so any problem the library can build round-trips through the API.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/decide"
	"repro/internal/jsonscan"
	"repro/internal/lcl"
	"repro/internal/obs"
)

// NewHandler returns the lclserver route table:
//
//	POST /v1/classify        one classification request
//	POST /v1/classify/batch  positional batch over the worker pool
//	GET  /v1/census/{k}      the classified cycle-LCL census for k labels
//	GET  /v1/census/paths/{k}  the path-LCL solvability census
//	POST /v1/jobs            submit a background job (typed spec)
//	GET  /v1/jobs            list jobs, newest first
//	GET  /v1/jobs/{id}       one job's state, progress, and result
//	DELETE /v1/jobs/{id}     cancel a pending or running job
//	GET  /v1/jobs/{id}/events  job progress stream (Server-Sent Events)
//	POST /v1/admin/snapshot  persist the warm state to the snapshot path
//	GET  /healthz            liveness
//	GET  /statsz             engine + cache counters + snapshot age
//	GET  /metricsz           Prometheus text exposition of the registry
//	GET  /debug/tracez       recent request traces with per-stage spans
//
// On an instrumented engine (the default) the whole table is wrapped
// in obs.Middleware: every request is metered, carries a trace (spans
// recorded by ClassifyCtx appear in /debug/tracez), echoes its
// X-Request-Id, and slow requests are logged with a span breakdown.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", e.handleClassify)
	mux.HandleFunc("POST /v1/classify/batch", e.handleBatch)
	mux.HandleFunc("GET /v1/census/{k}", e.handleCensus)
	mux.HandleFunc("GET /v1/census/paths/{k}", e.handlePathCensus)
	mux.HandleFunc("POST /v1/jobs", e.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", e.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", e.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", e.handleJobEvents)
	mux.HandleFunc("POST /v1/admin/snapshot", e.handleSnapshotSave)
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /statsz", e.handleStatsz)
	set := e.Obs()
	if set == nil {
		return mux
	}
	mux.Handle("GET /metricsz", obs.MetricsHandler(set.Registry))
	mux.Handle("GET /debug/tracez", obs.TracezHandler(set.Traces))
	return obs.Middleware(mux, set)
}

// wireRequest is the JSON form of a Request. Exactly one of Problem
// (lcl codec) / Rooted carries the problem, matching the mode.
type wireRequest struct {
	Mode      string                `json:"mode"`
	Problem   json.RawMessage       `json:"problem,omitempty"`
	Rooted    *decide.RootedProblem `json:"rooted,omitempty"`
	MaxLevels int                   `json:"max_levels,omitempty"`
	MaxRadius int                   `json:"max_radius,omitempty"`
	Dims      int                   `json:"dims,omitempty"`
}

// decodeRequest parses one wire request into an engine Request; lcl
// problem payloads are validated by the lcl codec, rooted specs by the
// decider's Normalize.
func decodeRequest(wr *wireRequest) (Request, error) {
	var req Request
	req.Mode = wr.Mode
	req.MaxLevels = wr.MaxLevels
	req.MaxRadius = wr.MaxRadius
	req.Dims = wr.Dims
	req.Rooted = wr.Rooted
	if len(wr.Problem) > 0 {
		p := &lcl.Problem{}
		if err := json.Unmarshal(wr.Problem, p); err != nil {
			return req, fmt.Errorf("invalid problem: %v", err)
		}
		req.Problem = p
	}
	if req.Problem == nil && req.Rooted == nil {
		return req, fmt.Errorf("missing problem payload")
	}
	return req, nil
}

// requestName returns the display name of a request's problem.
func requestName(req *Request) string {
	switch {
	case req.Problem != nil:
		return req.Problem.Name
	case req.Rooted != nil:
		return req.Rooted.Name
	default:
		return ""
	}
}

// Request-body limits. A batch may carry maxBatch items of
// maxBatchItemBody bytes each. A body buffer that grew past
// maxPooledBody, one item's worth, is dropped rather than pooled: the
// pool serves single requests, and batch-sized buffers kept in it would
// pin their memory between requests.
const (
	maxClassifyBody  = 1 << 20
	maxBatchItemBody = 16 << 10
	maxPooledBody    = maxBatchItemBody
)

// bodyReadTimeout bounds how long a request body may take to arrive once
// its headers are read. A body still incomplete at the deadline gets 408.
// The deadline is lifted as soon as the body is read, so it never cuts
// short a compute or a reply, and routes without a body, such as job
// event streams, never set it.
const bodyReadTimeout = 30 * time.Second

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r's body, at most limit bytes, into a pooled buffer,
// which the caller hands back with putBody. The declared length sizes
// the buffer up front only up to maxPooledBody: beyond that the buffer
// grows as bytes arrive, so a client that declares a large body and
// sends little of it holds little memory. When reading fails it writes
// the error reply — 413 for an oversized body — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, limit, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return buf, true
	}
	putBody(buf)
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the limit of %d bytes", limit)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		httpError(w, http.StatusRequestTimeout, "request body not received in time")
	} else {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	}
	return nil, false
}

// readTimedBody is readBody under the engine's body-read deadline, when w
// reaches the connection: a client that stalls mid-body gets 408 at the
// deadline rather than holding a handler. net/http lifts the deadline
// itself once the body reaches EOF, when it starts its background read of
// the connection, so a compute that runs past the deadline keeps its
// request context (TestHTTPBodyReadDeadline pins this). After a failed
// read the deadline stands, and the server closes the connection without
// waiting for the rest of the body.
func (e *Engine) readTimedBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, bool) {
	setReadDeadline(w, e.bodyTimeout)
	return readBody(w, r, limit)
}

// setReadDeadline sets the read deadline of w's connection to timeout from
// now, as http.ResponseController does, when w or a writer it wraps has
// one. For a writer without one, such as an in-process recorder, it does
// nothing, where the controller would format a fresh ErrNotSupported
// error, two allocations a request.
func setReadDeadline(w http.ResponseWriter, timeout time.Duration) {
	for {
		switch t := w.(type) {
		case interface{ SetReadDeadline(time.Time) error }:
			t.SetReadDeadline(time.Now().Add(timeout))
			return
		case interface{ Unwrap() http.ResponseWriter }:
			w = t.Unwrap()
		default:
			return
		}
	}
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// decodeClassify decodes a /v1/classify body, interning its mode
// against modes. A body in the plain shape takes the one-pass scanner;
// every other body, and every body with an error, is decoded by
// encoding/json, which writes every error message.
func decodeClassify(body []byte, modes []string) (Request, error) {
	sc := jsonscan.Scanner{Data: body}
	if req, ok := scanRequest(&sc, modes, nil); ok && sc.End() {
		return req, nil
	}
	var wr wireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
		return Request{}, fmt.Errorf("invalid JSON: %v", err)
	}
	return decodeRequest(&wr)
}

// scanRequest scans one request object in the plain shape: the keys
// mode, problem, max_levels, max_radius and dims, each at most once,
// with a problem lcl.ParsePlain accepts. The mode is interned against
// modes. Items of a batch whose problem bytes are identical share one
// *lcl.Problem through problems, when it is non-nil. It reports false
// on anything else. Nothing it returns refers to the scanned bytes.
func scanRequest(sc *jsonscan.Scanner, modes []string, problems map[string]*lcl.Problem) (Request, bool) {
	var req Request
	var problem []byte
	var seen [5]bool // mode, problem, max_levels, max_radius, dims
	ok := sc.Object(func(ks, ke int) bool {
		key, ok := -1, false
		switch string(sc.Data[ks:ke]) {
		case "mode":
			key = 0
			var a, b int
			a, b, ok = sc.String()
			req.Mode = internMode(sc.Data[a:b], modes)
		case "problem":
			key = 1
			if sc.Peek() == '{' {
				start := sc.Pos
				ok = sc.Skip()
				problem = sc.Data[start:sc.Pos]
			}
		case "max_levels":
			key = 2
			req.MaxLevels, ok = sc.Uint()
		case "max_radius":
			key = 3
			req.MaxRadius, ok = sc.Uint()
		case "dims":
			key = 4
			req.Dims, ok = sc.Uint()
		}
		if key < 0 || seen[key] {
			return false
		}
		seen[key] = true
		return ok
	})
	if !ok || problem == nil {
		return req, false
	}
	if req.Problem = problems[string(problem)]; req.Problem != nil {
		return req, true
	}
	req.Problem, ok = lcl.ParsePlain(problem)
	if ok && problems != nil {
		problems[string(problem)] = req.Problem
	}
	return req, ok
}

// internMode returns the name in modes that b spells, or a copy of b,
// so that a decoded mode never refers to the body buffer and a
// registered one costs no allocation.
func internMode(b []byte, modes []string) string {
	for _, m := range modes {
		if string(b) == m {
			return m
		}
	}
	return string(b)
}

func (e *Engine) handleClassify(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	var spanStart time.Time
	if tr != nil {
		spanStart = time.Now()
	}
	body, ok := e.readTimedBody(w, r, maxClassifyBody)
	if !ok {
		return
	}
	req, err := decodeClassify(body.Bytes(), e.modes)
	putBody(body)
	tr.Record("decode", spanStart)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := e.ClassifyCtx(r.Context(), req)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if tr != nil {
		spanStart = time.Now()
	}
	be := getEncoder()
	defer be.release()
	err = be.writeResult(requestName(&req), resp)
	tr.Record("encode", spanStart)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	be.flush(w)
}

type wireBatchRequest struct {
	Requests []wireRequest `json:"requests"`
}

// wireBatchLimitError is the structured 413 body for oversized batches.
type wireBatchLimitError struct {
	Error    string `json:"error"`
	MaxBatch int    `json:"max_batch"`
	Items    int    `json:"items"`
}

// batchEncoder is the pooled response writer behind both classify
// routes: one buffer for the whole body, written with append and no
// reflection. An item is one compact JSON object on its own line, with
// the fields, in order,
//
//	problem      the problem's name, left out when empty
//	mode
//	fingerprint  16 hex digits, left out on an error item
//	cache_hit
//	coalesced    only when true
//	sealed       only when true
//	class        the shared-lattice class, left out when empty
//	detail       the decider's detail, left out when nil
//	error        the item's error, left out on success
//
// and strings escaped as encoding/json escapes them, so a /v1/classify
// body is byte for byte the matching /v1/classify/batch item and the
// output of json.Encoder over the same fields.
type batchEncoder struct {
	buf []byte
}

// encPool holds the encoders of single replies; batchEncPool, a free
// list for the same reason as batchScratchPool, those of batch replies,
// whose buffers grow with the batch.
var (
	encPool      = sync.Pool{New: func() any { return new(batchEncoder) }}
	batchEncPool = newFreeList(func() *batchEncoder { return new(batchEncoder) })
)

func getEncoder() *batchEncoder { return encPool.Get().(*batchEncoder) }

// release empties the encoder and returns it to the pool.
func (be *batchEncoder) release() {
	be.buf = be.buf[:0]
	encPool.Put(be)
}

// jsonContentType is the Content-Type header value of every classify
// reply, shared so that setting it allocates nothing; nothing writes to
// it.
var jsonContentType = []string{"application/json"}

// flush writes the buffered body as a 200 JSON response.
func (be *batchEncoder) flush(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(be.buf)
}

// detailAppender is implemented by the service's own detail types,
// which append their JSON form without reflection. Other details (the
// rooted and grid verdicts, which are library types) go through
// json.Marshal.
type detailAppender interface {
	appendJSON(dst []byte) []byte
}

// writeResult appends the wire form of one served item. A detail that
// json.Marshal rejects is a programming error, returned (with nothing
// written) so the caller can report it instead of sending a 200 with a
// missing detail.
func (be *batchEncoder) writeResult(name string, resp *Response) error {
	b := appendHead(be.buf, name, resp.Mode)
	b = append(b, `,"fingerprint":"`...)
	b = obs.AppendHex16(b, resp.Fingerprint)
	b = append(b, `","cache_hit":`...)
	b = strconv.AppendBool(b, resp.CacheHit)
	if resp.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	if resp.Sealed {
		b = append(b, `,"sealed":true`...)
	}
	if class := resp.Class.String(); class != "" {
		b = append(b, `,"class":`...)
		b = appendString(b, class)
	}
	switch d := resp.Detail.(type) {
	case nil:
	case detailAppender:
		b = d.appendJSON(append(b, `,"detail":`...))
	default:
		raw, err := json.Marshal(d)
		if err != nil {
			return fmt.Errorf("encode %s detail: %v", resp.Mode, err)
		}
		b = append(append(b, `,"detail":`...), raw...)
	}
	be.buf = append(b, "}\n"...)
	return nil
}

// writeError appends the wire form of one failed item.
func (be *batchEncoder) writeError(name, mode string, err error) {
	b := append(appendHead(be.buf, name, mode), `,"cache_hit":false`...)
	if msg := err.Error(); msg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, msg)
	}
	be.buf = append(b, "}\n"...)
}

// appendHead opens an item with its problem name and mode.
func appendHead(b []byte, name, mode string) []byte {
	b = append(b, '{')
	if name != "" {
		b = append(b, `"problem":`...)
		b = appendString(b, name)
		b = append(b, ',')
	}
	b = append(b, `"mode":`...)
	return appendString(b, mode)
}

// appendString appends s as a JSON string, escaped byte for byte as
// json.Encoder escapes it: the short escapes for quote, backslash, \b,
// \f, \n, \r and \t; \u00XX for the other control bytes and for <, >
// and &; \ufffd for each invalid UTF-8 byte; \u2028 and \u2029; and
// everything else verbatim. (strconv.AppendQuote would write Go
// escapes, such as \x.. and \a, which are not JSON.)
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

func (e *Engine) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := e.readTimedBody(w, r, int64(e.maxBatch)*maxBatchItemBody)
	if !ok {
		return
	}
	reqs, decodeErrs, ok := e.decodeBatch(w, body.Bytes())
	putBody(body)
	if !ok {
		return
	}
	failed := func(i int) bool { return decodeErrs != nil && decodeErrs[i] != nil }
	valid := reqs
	if decodeErrs != nil {
		valid = make([]Request, 0, len(reqs))
		for i := range reqs {
			if !failed(i) {
				valid = append(valid, reqs[i])
			}
		}
	}
	b := e.NewBatch()
	defer b.Release()
	items := b.Classify(r.Context(), valid)

	// Stream the response through the pooled encoder, one line per
	// item: the newline after each item is legal JSON whitespace inside
	// the array.
	be := batchEncPool.get()
	defer batchEncPool.put(be)
	be.buf = append(be.buf[:0], `{"results":[`...)
	next := 0
	for i := range reqs {
		if i > 0 {
			be.buf = append(be.buf, ',')
		}
		if failed(i) {
			be.writeError("", reqs[i].Mode, decodeErrs[i])
			continue
		}
		item, req := items[next], &valid[next]
		next++
		if item.Err == nil {
			// Positional: an encode failure stays in its slot as an
			// explicit item error.
			item.Err = be.writeResult(requestName(req), item.Response)
		}
		if item.Err != nil {
			be.writeError(requestName(req), req.Mode, item.Err)
		}
	}
	be.buf = append(be.buf, ']')
	if d := b.Stats().Deduped; d > 0 {
		be.buf = strconv.AppendInt(append(be.buf, `,"deduped":`...), int64(d), 10)
	}
	be.buf = append(be.buf, "}\n"...)
	be.flush(w)
}

// decodeBatch decodes a /v1/classify/batch body into positional
// requests and their decode errors, nil when every item decoded. A body
// in the plain shape takes the one-pass scanner; every other body is
// decoded by encoding/json. When the batch as a whole is rejected it
// writes the error reply and returns false.
func (e *Engine) decodeBatch(w http.ResponseWriter, body []byte) ([]Request, []error, bool) {
	if reqs, ok := scanBatch(body, e.maxBatch, e.modes); ok {
		return reqs, nil, true
	}
	var wb wireBatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wb); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return nil, nil, false
	}
	if len(wb.Requests) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return nil, nil, false
	}
	if max := e.maxBatch; len(wb.Requests) > max {
		writeJSON(w, http.StatusRequestEntityTooLarge, wireBatchLimitError{
			Error:    fmt.Sprintf("batch of %d items exceeds the limit of %d", len(wb.Requests), max),
			MaxBatch: max,
			Items:    len(wb.Requests),
		})
		return nil, nil, false
	}
	// Decode errors (including explicitly empty items — no problem
	// payload at all) keep their slot so results stay positional.
	// Duplicate raw problem payloads decode once and share one
	// *lcl.Problem, which lights up the engine's identity prefilter —
	// a literal duplicate item is never re-canonicalized.
	reqs := make([]Request, len(wb.Requests))
	decodeErrs := make([]error, len(wb.Requests))
	problems := map[string]*lcl.Problem{}
	for i := range wb.Requests {
		wr := &wb.Requests[i]
		if len(wr.Problem) > 0 {
			if p, ok := problems[string(wr.Problem)]; ok {
				reqs[i] = Request{
					Mode:      wr.Mode,
					Problem:   p,
					Rooted:    wr.Rooted,
					MaxLevels: wr.MaxLevels,
					MaxRadius: wr.MaxRadius,
					Dims:      wr.Dims,
				}
				continue
			}
		}
		reqs[i], decodeErrs[i] = decodeRequest(wr)
		if decodeErrs[i] == nil && reqs[i].Problem != nil {
			problems[string(wr.Problem)] = reqs[i].Problem
		}
	}
	return reqs, decodeErrs, true
}

// scanBatch scans a batch body in the plain shape: {"requests":[…]}
// with every item as scanRequest accepts it, and items with identical
// problem bytes sharing one problem, as on the encoding/json path. It
// reports false on anything else, including an empty batch or one over
// max items, whose replies the encoding/json path writes.
func scanBatch(body []byte, max int, modes []string) ([]Request, bool) {
	sc := jsonscan.Scanner{Data: body}
	var reqs []Request
	problems := map[string]*lcl.Problem{}
	seen := false
	ok := sc.Object(func(ks, ke int) bool {
		if seen || string(sc.Data[ks:ke]) != "requests" {
			return false
		}
		seen = true
		return sc.Array(func() bool {
			req, ok := scanRequest(&sc, modes, problems)
			reqs = append(reqs, req)
			return ok && len(reqs) <= max
		})
	})
	if !ok || !sc.End() || len(reqs) == 0 {
		return nil, false
	}
	return reqs, true
}

// wireCensus summarizes a census for the wire: per-class counts rather
// than the full entry list (4096 raw problems at k = 3).
type wireCensus struct {
	K                  int                       `json:"k"`
	Dedup              bool                      `json:"dedup"`
	TotalProblems      int                       `json:"total_problems"`
	IsomorphismClasses int                       `json:"isomorphism_classes,omitempty"`
	Classes            map[string]wireClassCount `json:"classes"`
	GapHolds           bool                      `json:"gap_holds"`
}

type wireClassCount struct {
	Raw       int `json:"raw"`
	Canonical int `json:"canonical,omitempty"`
}

func (e *Engine) handleCensus(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil || k < 1 || k > 3 {
		httpError(w, http.StatusBadRequest, "census k must be an integer in [1, 3]")
		return
	}
	dedup := true
	if v := r.URL.Query().Get("dedup"); v != "" {
		dedup, err = strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid dedup: %v", err)
			return
		}
	}
	c, err := e.Census(k, dedup)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wc := wireCensus{
		K:        c.K,
		Dedup:    c.Dedup,
		Classes:  map[string]wireClassCount{},
		GapHolds: c.GapHolds(),
	}
	for cl, n := range c.RawByClass {
		wc.TotalProblems += n
		cc := wireClassCount{Raw: n}
		if dedup {
			cc.Canonical = c.ByClass[cl]
		}
		wc.Classes[cl.String()] = cc
	}
	if dedup {
		wc.IsomorphismClasses = len(c.Entries)
	}
	writeJSON(w, http.StatusOK, wc)
}

// wirePathCensus is the JSON form of a path census (encoding/json
// renders int-keyed maps with string keys).
type wirePathCensus struct {
	K              int         `json:"k"`
	TotalProblems  int         `json:"total_problems"`
	SolvableAll    int         `json:"solvable_all"`
	UnsolvableSome int         `json:"unsolvable_some"`
	ShortestBad    map[int]int `json:"shortest_bad,omitempty"`
}

func (e *Engine) handlePathCensus(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil || k < 1 || k > 3 {
		httpError(w, http.StatusBadRequest, "path census k must be an integer in [1, 3]")
		return
	}
	c, err := e.PathCensus(k)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wirePathCensus{
		K:              c.K,
		TotalProblems:  c.Total,
		SolvableAll:    c.SolvableAll,
		UnsolvableSome: c.UnsolvableSome,
		ShortestBad:    c.ShortestBad,
	})
}

func (e *Engine) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	res, err := e.SaveSnapshot()
	if err != nil {
		// No configured path is an operator misconfiguration (409); a
		// failed write is a server fault (500).
		status := http.StatusInternalServerError
		if e.snapshotPath == "" {
			status = http.StatusConflict
		}
		httpError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (e *Engine) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
