package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// NewHandler wires the manager into the placerd JSON API:
//
//	POST   /jobs                    submit a JobSpec, returns the job snapshot
//	POST   /v1/jobs                 alias of POST /jobs (ECO clients; spec may carry "parent")
//	GET    /jobs                    list retained jobs
//	GET    /jobs/{id}               one job's live status
//	GET    /jobs/{id}/trajectory    the job's recorded HPWL-vs-overflow curve
//	DELETE /jobs/{id}               cancel a job (?if=queued: steal-safe cancel)
//	GET    /v1/jobs/{id}/trajectory stream trajectory points as NDJSON
//	GET    /stats                   capacity/queue-depth snapshot (fleet heartbeats)
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz                 liveness probe
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	submit := func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			WriteError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
			return
		}
		v, err := m.Submit(spec)
		if err != nil {
			WriteError(w, statusFor(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusAccepted, v)
	}
	mux.HandleFunc("POST /jobs", submit)
	// /v1/jobs is the stable alias ECO clients use; `parent` in the spec
	// routes the job through the placement-result cache's near-hit path.
	mux.HandleFunc("POST /v1/jobs", submit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Get(r.PathValue("id"))
		if err != nil {
			WriteError(w, statusFor(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /jobs/{id}/trajectory", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		pts, _, err := m.TrajectoryAfter(id, -1)
		if err != nil {
			WriteError(w, statusFor(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"id": id, "trajectory": pts})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trajectory", func(w http.ResponseWriter, r *http.Request) {
		streamTrajectory(m, w, r)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		// ?if=queued makes the cancel steal-safe: it refuses (409) when the
		// job already started, so a fleet coordinator can pull queued work
		// off a busy node without ever killing a running placement.
		var (
			v   JobView
			err error
		)
		if r.URL.Query().Get("if") == "queued" {
			v, err = m.CancelQueued(r.PathValue("id"))
		} else {
			v, err = m.Cancel(r.PathValue("id"))
		}
		if err != nil {
			WriteError(w, statusFor(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, m.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Telemetry().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// trajectoryPollInterval is how often the streaming endpoint checks a live
// job for new points.
const trajectoryPollInterval = 50 * time.Millisecond

// streamTrajectory serves GET /v1/jobs/{id}/trajectory: newline-delimited
// JSON, one trajectory point per line, flushed as the run produces them.
// The stream ends when the job reaches a terminal state (or, with
// ?follow=false, after the currently buffered points). The Fig. 3 curves of
// the paper replay directly from this endpoint. Optional query parameters:
//
//	after  only stream points with iter > after (resume a dropped stream)
//	follow "false" returns the current buffer and closes (default true)
func streamTrajectory(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	after := -1
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad after parameter: "+err.Error())
			return
		}
		after = v
	}
	follow := r.URL.Query().Get("follow") != "false"

	// Fail with a proper status before committing to the stream.
	if _, _, err := m.TrajectoryAfter(id, after); err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		pts, terminal, err := m.TrajectoryAfter(id, after)
		if err != nil {
			return // job pruned mid-stream; the line stream just ends
		}
		for _, p := range pts {
			if err := enc.Encode(p); err != nil {
				return // client went away
			}
			after = p.Iter
		}
		if len(pts) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal || !follow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(trajectoryPollInterval):
		}
	}
}

// statusFor maps manager errors onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrJobFinished):
		return http.StatusConflict
	case errors.Is(err, ErrJobRunning):
		return http.StatusConflict
	case errors.Is(err, ErrSpecRejected):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status. The placerd and coordinator APIs both answer through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// WriteError writes the {"error": msg} body of a failed request.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}
