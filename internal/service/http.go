package service

// The HTTP face of the service — cmd/breathed mounts this mux; tests and
// cmd/loadgen's end-to-end test drive it through httptest. The wire
// contract: every job-addressed endpoint answers with a JobStatus
// envelope, while /result serves the stored canonical response bytes so
// that cache hits are byte-identical to the run that computed them.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"breathe/internal/api"
)

// JobStatus is the envelope every job-addressed endpoint returns. The
// run's response rides inside it for convenience; the byte-exact form
// lives at /result.
type JobStatus struct {
	ID       string           `json:"id"`
	Hash     string           `json:"hash"`
	State    State            `json:"state"`
	Cached   bool             `json:"cached,omitempty"`
	WallMS   float64          `json:"wall_ms,omitempty"`
	Error    string           `json:"error,omitempty"`
	Response *api.RunResponse `json:"response,omitempty"`
}

func statusOf(j *Job) JobStatus {
	st := JobStatus{
		ID:     j.ID,
		Hash:   j.Hash(),
		State:  j.State(),
		Cached: j.Cached,
		WallMS: float64(j.Wall().Microseconds()) / 1e3,
	}
	if err := j.Err(); err != nil {
		st.Error = err.Error()
	}
	if resp, _, ok := j.Response(); ok {
		st.Response = resp
	}
	return st
}

type httpServer struct {
	svc *Service
}

// NewHTTPHandler mounts the service's endpoints on a fresh mux:
//
//	POST /v1/runs              submit an api.RunRequest (200 cache hit,
//	                           202 queued, 413 body over 64 KiB, 429
//	                           queue full; the X-Breathe-Cache header
//	                           says hit|miss)
//	GET  /v1/runs/{id}         job status
//	GET  /v1/runs/{id}/result  canonical response bytes (?wait=1 blocks)
//	GET  /v1/runs/{id}/stream  trajectory stream, NDJSON or SSE
//	POST /v1/runs/{id}/cancel  cancel queued or at the next round barrier
//	GET  /v1/runs/{id}/trace   NDJSON run trace (jobs submitted with
//	                           trace_every > 0; per execution, never cached)
//	GET  /v1/stats             pool and cache counters
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness
func NewHTTPHandler(svc *Service) *http.ServeMux {
	s := &httpServer{svc: svc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.submit)
	mux.HandleFunc("GET /v1/runs/{id}", s.get)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.result)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.stream)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.cancel)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.trace)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.healthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBody caps a submit body. A canonical request is well under
// 1 KiB; the cap keeps a huge body from being buffered in full.
const maxSubmitBody = 64 << 10

func (s *httpServer) submit(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	job, err := s.svc.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	cacheHdr := "miss"
	if job.Cached {
		code = http.StatusOK
		cacheHdr = "hit"
	}
	w.Header().Set("X-Breathe-Cache", cacheHdr)
	writeJSON(w, code, statusOf(job))
}

func (s *httpServer) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.svc.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return job, ok
}

func (s *httpServer) get(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(job))
	}
}

// result serves the stored canonical response bytes. Clients comparing
// cached against fresh results should use this endpoint: the bytes are
// the exact slice the computing run marshaled.
func (s *httpServer) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		// Wait handler-side on the job's change channel (no points
		// requested, hence the maximal from index): unlike Job.Done this
		// spawns nothing, so a disconnecting client releases everything
		// at once instead of leaving a watcher until the job ends.
		for {
			_, terminal, ch := job.Next(int(^uint(0) >> 1))
			if terminal {
				break
			}
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
	}
	_, raw, ok := job.Response()
	if !ok {
		st := statusOf(job)
		code := http.StatusConflict // terminal but unsuccessful
		if !st.State.Terminal() {
			code = http.StatusAccepted // still in flight; poll or ?wait=1
		}
		writeJSON(w, code, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// stream sends the job's trajectory as NDJSON ({"point":…} per sample,
// one final {"done":…}) or as SSE when the client asks for
// text/event-stream.
func (s *httpServer) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(event string, v any) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: ", event)
			enc.Encode(v)
			fmt.Fprint(w, "\n")
		} else {
			enc.Encode(map[string]any{event: v})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	idx := 0
	for {
		pts, terminal, wait := job.Next(idx)
		for _, p := range pts {
			emit("point", p)
		}
		idx += len(pts)
		if terminal {
			emit("done", statusOf(job))
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *httpServer) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	canceled := s.svc.Cancel(job.ID)
	st := statusOf(job)
	if !canceled && !st.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s not cancelable in state %s", job.ID, st.State))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// trace serves a completed job's NDJSON run trace. 404: the job is
// unknown or did not request a trace (trace_every == 0, or it was a
// cache hit — no kernel ran, no trace exists). 202: the run is still in
// flight. 409: terminal without a trace (canceled, failed).
func (s *httpServer) trace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(w, r)
	if !ok {
		return
	}
	raw, ok := job.Trace()
	if !ok {
		st := statusOf(job)
		switch {
		case job.Cached || job.Request().TraceEvery <= 0:
			writeError(w, http.StatusNotFound, fmt.Errorf("job %s has no trace (submit with trace_every > 0; cache hits run no kernel)", job.ID))
		case !st.State.Terminal():
			writeJSON(w, http.StatusAccepted, st)
		default:
			writeJSON(w, http.StatusConflict, st)
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(raw)
}

// metrics renders the service registry in Prometheus text format.
func (s *httpServer) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Registry().WriteText(w)
}

func (s *httpServer) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *httpServer) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
