package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/retry"
	"repro/internal/service"
)

// fakeCoord fakes just enough of the coordinator API: the first rejects
// submits with a 429, then accepts and drives the job to done.
func fakeCoord(rejects int32) (*httptest.Server, *atomic.Int32) {
	var submits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Tenant") != "ci" {
			http.Error(w, `{"error":"wrong tenant"}`, http.StatusBadRequest)
			return
		}
		if submits.Add(1) <= rejects {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"tenant rate limit exceeded"}`)) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"fj-000001","tenant":"ci","class":"batch","state":"queued","submitted_at":"2026-01-01T00:00:00Z"}`)) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/fj-000001", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"fj-000001","tenant":"ci","class":"batch","state":"done","submitted_at":"2026-01-01T00:00:00Z"}`)) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"workers":[{"id":"w1","url":"http://w1","stats":{"place_workers":1,"queue_cap":8,"queue_depth":0,"running":0},"last_seen":"2026-01-01T00:00:00Z"}],"pending":0,"counters":{"submitted":1,"rejected":1,"assigned":1,"rerouted":0,"stolen":0,"affinity_hits":0,"heartbeats":3}}`)) //nolint:errcheck
	})
	return httptest.NewServer(mux), &submits
}

func testSpec() service.JobSpec {
	return service.JobSpec{Design: service.DesignSpec{Synth: &service.SynthSpec{Cells: 64}}}
}

func TestSubmitSurfacesRetryAfter(t *testing.T) {
	srv, _ := fakeCoord(1)
	defer srv.Close()
	c := &Client{Base: srv.URL, Tenant: "ci"}

	_, err := c.Submit(context.Background(), testSpec())
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("first Submit err = %v, want *RetryAfterError", err)
	}
	if ra.After != time.Second || ra.Status != http.StatusTooManyRequests {
		t.Errorf("RetryAfterError = %+v, want 1s/429", ra)
	}
	if ra.Msg == "" {
		t.Error("pushback message should carry the server's error text")
	}

	v, err := c.Submit(context.Background(), testSpec())
	if err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	if v.ID != "fj-000001" || v.Tenant != "ci" {
		t.Errorf("accepted view = %+v", v)
	}
}

func TestSubmitWaitHonorsBackpressure(t *testing.T) {
	srv, submits := fakeCoord(2)
	defer srv.Close()
	c := &Client{Base: srv.URL, Tenant: "ci", Poll: time.Millisecond}

	start := time.Now()
	v, rejected, retries, err := c.SubmitRetry(context.Background(), testSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := submits.Load(); got != 3 {
		t.Errorf("submit attempts = %d, want 3 (two 429s absorbed)", got)
	}
	// Pushback is pacing, not failure: it never spends the retry budget.
	if rejected != 2 || retries != 0 {
		t.Errorf("rejected = %d, retries = %d; want 2 and 0", rejected, retries)
	}
	// Two advertised 1-second waits must actually have been slept out.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("SubmitRetry returned after %s, want >= 2s of Retry-After pacing", elapsed)
	}
	final, err := c.WaitTerminal(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Errorf("final state = %q, want done", final.State)
	}
}

func TestFleetStatus(t *testing.T) {
	srv, _ := fakeCoord(0)
	defer srv.Close()
	c := &Client{Base: srv.URL}
	st, err := c.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := fleet.Counters{Submitted: 1, Rejected: 1, Assigned: 1, Heartbeats: 3}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" || st.Counters != want {
		t.Errorf("Fleet() = %+v", st)
	}
}

func TestSubmitWaitRespectsContext(t *testing.T) {
	srv, _ := fakeCoord(1000)
	defer srv.Close()
	c := &Client{Base: srv.URL, Tenant: "ci"}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, _, err := c.SubmitRetry(ctx, testSpec(), ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("SubmitRetry under a dead context = %v, want DeadlineExceeded", err)
	}
}

// TestSubmitRetryUnderChaos drives SubmitRetry through a chaos transport
// that drops and 500s early requests: the submit must eventually land,
// carry the idempotency key on every attempt, and classify permanent errors
// without retrying them.
func TestSubmitRetryUnderChaos(t *testing.T) {
	var submits atomic.Int32
	keys := make(map[string]int32)
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		mu.Lock()
		keys[r.Header.Get("X-Idempotency-Key")]++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"fj-000009","tenant":"ci","class":"batch","state":"queued","submitted_at":"2026-01-01T00:00:00Z"}`)) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Per-rule visit counts advance only when a request reaches the rule, so
	// the 500 fires on the first attempt that survives the two drops.
	tr := chaos.NewTransport(nil, 3, 1,
		chaos.Rule{Name: "drop2", Kind: chaos.KindDrop, Times: 2},
		chaos.Rule{Name: "err1", Kind: chaos.KindHTTP500, Times: 1})
	c := &Client{
		Base: srv.URL, Tenant: "ci",
		HTTP:    &http.Client{Transport: tr},
		Backoff: time.Millisecond,
	}
	v, rejected, retries, err := c.SubmitRetry(context.Background(), testSpec(), "idem-9")
	if err != nil {
		t.Fatalf("SubmitRetry: %v (rejected %d, retries %d)", err, rejected, retries)
	}
	if v.ID != "fj-000009" || rejected != 0 || retries != 3 {
		t.Errorf("SubmitRetry = %+v, rejected %d, retries %d; want fj-000009 with 3 transient retries", v, rejected, retries)
	}
	// Only the post-fault attempt reached the server, with the key intact.
	if got := submits.Load(); got != 1 {
		t.Errorf("server saw %d submits, want 1 (faults never arrived)", got)
	}
	mu.Lock()
	if keys["idem-9"] != 1 {
		t.Errorf("idempotency keys seen = %v, want idem-9 once", keys)
	}
	mu.Unlock()
}

// TestSubmitRetryStopsOnPermanentError: a 400 is not retried.
func TestSubmitRetryStopsOnPermanentError(t *testing.T) {
	var submits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, Tenant: "ci", Backoff: time.Millisecond}
	_, _, retries, err := c.SubmitRetry(context.Background(), testSpec(), "k")
	if err == nil || retries != 0 {
		t.Fatalf("err = %v retries = %d, want immediate permanent failure", err, retries)
	}
	var se *retry.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("error %v should wrap StatusError 400", err)
	}
	if submits.Load() != 1 {
		t.Fatalf("server saw %d submits, want 1", submits.Load())
	}
}

// TestWaitTerminalToleratesTransientPollFailures: Get failures that are
// retryable keep the poll alive; the wait still lands on done.
func TestWaitTerminalToleratesTransientPollFailures(t *testing.T) {
	var gets atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/fj-1", func(w http.ResponseWriter, r *http.Request) {
		n := gets.Add(1)
		if n <= 2 {
			http.Error(w, `{"error":"mid-restart"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		state := "running"
		if n >= 4 {
			state = "done"
		}
		w.Write([]byte(`{"id":"fj-1","tenant":"ci","class":"batch","state":"` + state + `","submitted_at":"2026-01-01T00:00:00Z"}`)) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := &Client{Base: srv.URL, Poll: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := c.WaitTerminal(ctx, "fj-1")
	if err != nil {
		t.Fatalf("WaitTerminal: %v", err)
	}
	if v.State != "done" || gets.Load() < 4 {
		t.Fatalf("final = %+v after %d polls", v, gets.Load())
	}

	// An unknown job is permanent: no polling loop.
	gets.Store(0)
	if _, err := c.WaitTerminal(ctx, "nope"); err == nil {
		t.Fatal("unknown job should fail immediately")
	}
}
