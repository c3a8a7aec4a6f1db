package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ccdem/internal/buildinfo"
)

// maxSpecBytes bounds a submitted job document. Campaign specs are a few
// KB of JSON; anything near this limit is abuse, not a cohort.
const maxSpecBytes = 1 << 20

// Handler builds the daemon's HTTP API around a Manager:
//
//	GET    /healthz                 liveness ("ok", 503 once shutting down)
//	GET    /version                 build identity JSON
//	GET    /metrics                 Prometheus text exposition (0.0.4)
//	POST   /api/jobs                submit a campaign (202 + progress)
//	GET    /api/jobs                list all jobs' progress
//	GET    /api/jobs/{id}           one job's progress
//	DELETE /api/jobs/{id}           request cancellation
//	GET    /api/jobs/{id}/result    merged result JSON (409 until terminal)
//	GET    /api/jobs/{id}/trace     campaign Perfetto trace (409 until terminal)
//	GET    /api/jobs/{id}/watch     SSE progress stream until terminal
//
// Every response carries Cache-Control: no-store — all of the daemon's
// surfaces report live state, so a cached body is a stale lie.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-m.Closing():
			httpError(w, http.StatusServiceUnavailable, "shutting down")
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, buildinfo.Get())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
	mux.HandleFunc("POST /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing job: %v", err)
			return
		}
		job, err := m.Submit(spec)
		switch {
		case errors.Is(err, ErrShuttingDown):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Location", "/api/jobs/"+job.ID())
		writeJSON(w, http.StatusAccepted, job.Progress())
	})
	mux.HandleFunc("GET /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := m.Jobs()
		list := make([]Progress, len(jobs))
		for i, j := range jobs {
			list[i] = j.Progress()
		}
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, job.Progress())
	})
	mux.HandleFunc("DELETE /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := m.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpError(w, http.StatusNotFound, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		job, _ := m.Job(r.PathValue("id"))
		writeJSON(w, http.StatusAccepted, job.Progress())
	})
	mux.HandleFunc("GET /api/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		p := job.Progress()
		result, have := job.Result()
		if !have {
			if !p.State.Terminal() {
				httpError(w, http.StatusConflict, "job %s still %s", job.ID(), p.State)
				return
			}
			httpError(w, http.StatusConflict, "job %s %s: %s", job.ID(), p.State, p.Error)
			return
		}
		// The result bytes come straight from Result.WriteJSON so a sharded
		// service run is byte-comparable with ccdem-fleet -stream output.
		w.Header().Set("Content-Type", "application/json")
		perDevice := r.URL.Query().Get("per_device") == "1"
		result.WriteJSON(w, perDevice)
	})
	mux.HandleFunc("GET /api/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		if p := job.Progress(); !p.State.Terminal() {
			httpError(w, http.StatusConflict, "job %s still %s", job.ID(), p.State)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		job.WriteTrace(w)
	})
	mux.HandleFunc("GET /api/jobs/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		watchJob(w, r, m, job)
	})
	return noStore(mux)
}

// noStore stamps Cache-Control: no-store on every response before the
// handler writes it.
func noStore(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		next.ServeHTTP(w, r)
	})
}

// watchJob streams SSE progress events until the job reaches a terminal
// state, the client goes away, or the manager begins shutting down.
func watchJob(w http.ResponseWriter, r *http.Request, m *Manager, job *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	updates, unsubscribe := job.Watch()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)

	emit := func(p Progress) bool {
		doc, err := json.Marshal(p)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: progress\ndata: %s\n\n", doc)
		flusher.Flush()
		return !p.State.Terminal()
	}
	if !emit(job.Progress()) {
		return
	}
	// The ticker backstops the fan-out: ElapsedS/ETAS move with wall
	// clock even when no device lands, and a missed coalesced update can
	// only delay a snapshot by one tick. The heartbeat ticker additionally
	// emits SSE comment frames — content-free keep-alives that hold idle
	// proxy connections open without disturbing event consumers.
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	heartbeat := time.NewTicker(m.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case p := <-updates:
			if !emit(p) {
				return
			}
		case <-tick.C:
			if !emit(job.Progress()) {
				return
			}
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-m.Closing():
			emit(job.Progress())
			return
		}
	}
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError writes the structured error body every non-2xx response
// carries: {"error": "..."}.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
