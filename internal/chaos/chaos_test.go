package chaos

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func newEchoServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var arrivals atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrivals.Add(1)
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv, &arrivals
}

// TestTransportDrop: a drop rule fails the request with an error wrapping
// faultinject.ErrInjected, and the request never reaches the server.
func TestTransportDrop(t *testing.T) {
	srv, arrivals := newEchoServer(t)
	tr := NewTransport(nil, 1, 1, Rule{Name: "d", Kind: KindDrop, After: 1})
	c := &http.Client{Transport: tr}

	if _, err := c.Get(srv.URL); err != nil {
		t.Fatalf("request 1 should pass: %v", err)
	}
	_, err := c.Get(srv.URL)
	if err == nil {
		t.Fatal("request 2 should be dropped")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("drop error should wrap ErrInjected, got %v", err)
	}
	if got := arrivals.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (drop must not reach it)", got)
	}
	if st := tr.Stats(); st.Drops != 1 || st.Requests != 2 || st.Injected() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransportHTTP500: the synthetic 500 is answered locally with a JSON
// body and never reaches the server.
func TestTransportHTTP500(t *testing.T) {
	srv, arrivals := newEchoServer(t)
	tr := NewTransport(nil, 1, 1, Rule{Name: "e", Kind: KindHTTP500, Forever: true})
	c := &http.Client{Transport: tr}

	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if arrivals.Load() != 0 {
		t.Fatal("synthetic 500 must not reach the server")
	}
}

// TestTransportLatencyStacks: a latency rule delays but still forwards, so
// the request succeeds and the server sees it.
func TestTransportLatencyStacks(t *testing.T) {
	srv, arrivals := newEchoServer(t)
	tr := NewTransport(nil, 1, 1, Rule{Name: "l", Kind: KindLatency, Latency: 10 * time.Millisecond, Forever: true})
	c := &http.Client{Transport: tr}

	start := time.Now()
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("latency rule injected only %s", elapsed)
	}
	if arrivals.Load() != 1 {
		t.Fatal("latency rule must forward the request")
	}
	if st := tr.Stats(); st.Latency != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransportBlackhole: the request stalls until its context deadline and
// surfaces the deadline error.
func TestTransportBlackhole(t *testing.T) {
	srv, arrivals := newEchoServer(t)
	tr := NewTransport(nil, 1, 1, Rule{Name: "b", Kind: KindBlackhole, Forever: true})
	c := &http.Client{Transport: tr}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("blackholed request should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackhole should surface the deadline, got %v", err)
	}
	if arrivals.Load() != 0 {
		t.Fatal("blackhole must not reach the server")
	}
}

// TestTransportMatch: Method and PathPrefix scope a rule to a traffic
// subset; unmatched requests pass untouched and don't advance the schedule.
func TestTransportMatch(t *testing.T) {
	srv, _ := newEchoServer(t)
	tr := NewTransport(nil, 1, 1,
		Rule{Name: "m", Kind: KindDrop, Method: http.MethodPost, PathPrefix: "/v1/jobs", Forever: true})
	c := &http.Client{Transport: tr}

	if resp, err := c.Get(srv.URL + "/v1/jobs"); err != nil {
		t.Fatalf("GET must pass the POST-only rule: %v", err)
	} else {
		resp.Body.Close()
	}
	if resp, err := c.Post(srv.URL+"/v1/workers/heartbeat", "", nil); err != nil {
		t.Fatalf("other path must pass: %v", err)
	} else {
		resp.Body.Close()
	}
	if _, err := c.Post(srv.URL+"/v1/jobs", "", nil); err == nil {
		t.Fatal("matched POST /v1/jobs should drop")
	}
}

// TestTransportDeterminism: two transports with the same seed and rule set
// inject faults at exactly the same request indices.
func TestTransportDeterminism(t *testing.T) {
	srv, _ := newEchoServer(t)
	trace := func(seed int64) []bool {
		tr := NewTransport(nil, seed, 10, DefaultRules(time.Millisecond)...)
		c := &http.Client{Transport: tr}
		var failed []bool
		for i := 0; i < 60; i++ {
			resp, err := c.Get(srv.URL)
			bad := err != nil
			if err == nil {
				bad = resp.StatusCode != http.StatusOK
				resp.Body.Close()
			}
			failed = append(failed, bad)
		}
		return failed
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a[i], b[i])
		}
	}
	any := false
	for _, bad := range a {
		any = any || bad
	}
	if !any {
		t.Fatal("default rules injected nothing across 60 requests")
	}
}
