// HTTP transport for the jobs API: typed submissions, listing,
// cancellation, and Server-Sent-Events progress streaming.
//
// SSE wire format (one event per job notification):
//
//	event: state|progress|checkpoint
//	data: {"id":"j000003","state":"running","progress":{...},...}
//
// The data payload is the full job record (the same JSON GET
// /v1/jobs/{id} serves), so a client can treat every event as a fresh
// snapshot; the stream ends after the event that carries a terminal
// state. Slow consumers lose oldest events first, never the newest.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/jobs"
)

// maxJobBody bounds a job submission, a spec of a few short fields.
const maxJobBody = 4 << 10

func (e *Engine) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := e.readTimedBody(w, r, maxJobBody)
	if !ok {
		return
	}
	defer putBody(body)
	var spec jobs.Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	job, err := e.SubmitJobCtx(r.Context(), spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

type wireJobList struct {
	Jobs []jobs.Job `json:"jobs"`
}

func (e *Engine) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wireJobList{Jobs: e.ListJobs()})
}

func (e *Engine) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := e.GetJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (e *Engine) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := e.CancelJob(id); err != nil {
		// Unknown id is 404; cancelling a finished job is 409.
		if _, ok := e.GetJob(id); !ok {
			httpError(w, http.StatusNotFound, "%v", err)
		} else {
			httpError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	job, _ := e.GetJob(id)
	writeJSON(w, http.StatusOK, job)
}

func (e *Engine) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, cancel, err := e.WatchJob(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-e.streamsDone:
			// Server shutting down: end the stream so the HTTP drain can
			// finish; the client sees EOF and can resubscribe after the
			// restart (the job resumes via the ledger).
			return
		case ev := <-ch:
			data, err := json.Marshal(ev.Job)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
			// The subscription's initial snapshot plus every transition
			// flows through here; a terminal state ends the stream.
			if ev.Type == jobs.EventState && ev.Job.State.Terminal() {
				return
			}
		}
	}
}
