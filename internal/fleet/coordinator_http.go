package fleet

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/service"
)

// NewHandler wires a coordinator into the fleet JSON API:
//
//	POST   /v1/workers/heartbeat       worker registration + liveness report
//	DELETE /v1/workers/{id}            graceful deregistration: the draining
//	                                   worker's jobs re-route immediately
//	POST   /v1/jobs                    submit a JobSpec (X-Tenant header selects
//	                                   the tenant; an X-Idempotency-Key header
//	                                   makes retries safe — a replayed key
//	                                   returns the existing job; 429 +
//	                                   Retry-After on pushback)
//	GET    /v1/jobs                    list fleet jobs
//	GET    /v1/jobs/{id}               one job, refreshed from its worker
//	DELETE /v1/jobs/{id}               cancel a job wherever it is
//	GET    /v1/jobs/{id}/trajectory    NDJSON trajectory stream proxied from
//	                                   the worker running the job
//	GET    /v1/fleet                   fleet status: workers + routing counters
//	GET    /v1/fleet/overview          aggregated dashboard snapshot: workers,
//	                                   tenants, cache rates, active jobs
//	GET    /metrics                    Prometheus text exposition
//	GET    /healthz                    liveness probe
//	GET    /readyz                     readiness: 200 once a worker is live
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&hb); err != nil {
			service.WriteError(w, http.StatusBadRequest, "bad heartbeat: "+err.Error())
			return
		}
		if err := c.RecordHeartbeat(hb, c.now()); err != nil {
			service.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("DELETE /v1/workers/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !c.DeregisterWorker(r.PathValue("id")) {
			service.WriteError(w, http.StatusNotFound, "fleet: unknown worker")
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec service.JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			service.WriteError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
			return
		}
		v, after, err := c.SubmitIdem(spec, r.Header.Get("X-Tenant"), r.Header.Get("X-Idempotency-Key"))
		if err != nil {
			if status := pushbackStatus(err); status != 0 {
				// Integer seconds, rounded up: every Retry-After parser
				// accepts the delta-seconds form.
				secs := int(math.Ceil(after.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				service.WriteError(w, status, err.Error())
				return
			}
			if errors.Is(err, service.ErrSpecRejected) {
				service.WriteError(w, http.StatusBadRequest, err.Error())
				return
			}
			service.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{"jobs": c.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := c.Get(r.PathValue("id"))
		if err != nil {
			service.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := c.Cancel(r.PathValue("id"))
		if err != nil {
			service.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trajectory", func(w http.ResponseWriter, r *http.Request) {
		c.proxyTrajectory(w, r)
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /v1/fleet/overview", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Overview())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.tel.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !c.Ready() {
			service.WriteError(w, http.StatusServiceUnavailable, "no live workers")
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// pushbackStatus returns the 429 status for admission/saturation pushback
// errors (0 for everything else).
func pushbackStatus(err error) int {
	if errors.Is(err, ErrRateLimited) || errors.Is(err, ErrQuotaExhausted) || errors.Is(err, ErrSaturated) {
		return http.StatusTooManyRequests
	}
	return 0
}

// proxyTrajectory streams a job's NDJSON trajectory through the coordinator:
// the client talks to one address whichever worker runs the job. The
// upstream request is bound to the client's context (a dropped client tears
// down the worker stream) and uses the timeout-free stream client so long
// follows are not cut off mid-run.
func (c *Coordinator) proxyTrajectory(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	var url, remote string
	if ok {
		url, remote = j.workerURL, j.remoteID
	}
	c.mu.Unlock()
	if !ok {
		service.WriteError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	if url == "" {
		service.WriteError(w, http.StatusConflict, "job has no worker yet (pending)")
		return
	}
	target := url + "/v1/jobs/" + remote + "/trajectory"
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		c.tel.ProxyErrors.Inc()
		service.WriteError(w, http.StatusBadGateway, "worker unreachable: "+err.Error())
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			if err != io.EOF {
				c.tel.ProxyErrors.Inc()
			}
			return
		}
	}
}
