// Package chaos turns the repo's deterministic fault scheduler
// (internal/faultinject) into a network-level chaos harness for the fleet:
// a Plan of named Rules drives an http.RoundTripper that injects latency
// spikes, dropped connections, synthetic 5xx responses, and blackholes into
// real HTTP traffic.
//
// Determinism carries over from faultinject: every Rule is scheduled by
// exact visit counts (After/Times/Every/Forever), and rules with After < 0
// get a reproducible injection point derived from the plan seed. Two runs
// with the same seed and the same request sequence inject the same faults
// at the same requests, so a chaos failure reproduces from (seed, plan)
// alone.
//
// Production binaries never construct these types on their own; the load
// harness opts in with -chaos, and tests wrap httptest clients.
package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Kind says what a firing rule does to the matched request.
type Kind string

const (
	// KindLatency delays the request by the rule's Latency, then lets it
	// proceed normally.
	KindLatency Kind = "latency"
	// KindDrop fails the request with a transport error (as if the
	// connection reset) without reaching the server.
	KindDrop Kind = "drop"
	// KindHTTP500 answers the request locally with a 500 without reaching
	// the server — the shape of a crashed or mid-restart backend.
	KindHTTP500 Kind = "http500"
	// KindBlackhole holds the request until its context expires — the shape
	// of a network partition with no RST. The caller's client timeout or
	// context deadline bounds the stall.
	KindBlackhole Kind = "blackhole"
)

// Rule schedules one fault kind against a subset of requests. Scheduling
// fields mirror faultinject.Fault: the rule fires on the After+1-th through
// After+Times-th matched requests, Every > 0 makes it periodic, Forever
// fires on every match past After, and After < 0 asks the plan seed to pick
// a reproducible injection point.
type Rule struct {
	// Name identifies the rule in counters and logs; it doubles as the
	// faultinject site name and must be unique within a plan.
	Name string
	// Kind selects the injected effect.
	Kind Kind
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
	// Method restricts the rule to one HTTP method ("" matches all).
	Method string
	// PathPrefix restricts the rule to request paths with this prefix
	// ("" matches all).
	PathPrefix string

	After   int  // matched requests to skip before firing (< 0: seeded)
	Times   int  // consecutive matches to fire on (<= 0 means 1)
	Every   int  // fire on every Every-th match past After (periodic)
	Forever bool // fire on every match past After
}

// matches reports whether the rule applies to the request at all
// (independent of its visit schedule).
func (r Rule) matches(req *http.Request) bool {
	if r.Method != "" && r.Method != req.Method {
		return false
	}
	if r.PathPrefix != "" && !strings.HasPrefix(req.URL.Path, r.PathPrefix) {
		return false
	}
	return true
}

// Stats counts injected faults by kind, plus total requests seen.
type Stats struct {
	Requests   int64 `json:"requests"`
	Latency    int64 `json:"latency"`
	Drops      int64 `json:"drops"`
	HTTP500s   int64 `json:"http_500s"`
	Blackholes int64 `json:"blackholes"`
}

// Injected is the total number of injected faults of any kind.
func (s Stats) Injected() int64 { return s.Latency + s.Drops + s.HTTP500s + s.Blackholes }

// Transport is an http.RoundTripper that consults a deterministic fault
// plan before forwarding each request to its base transport. It is safe for
// concurrent use; per-rule visit counting is serialized inside the plan, so
// under concurrency the *set* of injected requests is deterministic even
// though which goroutine draws each fault is not.
type Transport struct {
	base     http.RoundTripper
	plan     *faultinject.Plan
	rules    []Rule
	requests atomic.Int64
	latency  atomic.Int64
	drops    atomic.Int64
	http500s atomic.Int64
	blackhls atomic.Int64
}

// NewTransport builds a chaos transport over base (nil: http.DefaultTransport)
// from a seeded rule schedule. Rules with After < 0 get a reproducible
// injection point in [0, spread) drawn from seed; spread < 1 is treated as 1.
func NewTransport(base http.RoundTripper, seed int64, spread int, rules ...Rule) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	faults := make([]faultinject.Fault, len(rules))
	for i, r := range rules {
		faults[i] = faultinject.Fault{
			Site:    faultinject.Site(r.Name),
			Mode:    faultinject.ModeError,
			After:   r.After,
			Times:   r.Times,
			Every:   r.Every,
			Forever: r.Forever,
		}
	}
	return &Transport{
		base:  base,
		plan:  faultinject.FromSeed(seed, spread, faults...),
		rules: rules,
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:   t.requests.Load(),
		Latency:    t.latency.Load(),
		Drops:      t.drops.Load(),
		HTTP500s:   t.http500s.Load(),
		Blackholes: t.blackhls.Load(),
	}
}

// RoundTrip applies the first firing non-latency rule (latency rules stack:
// they delay and then let later rules and the real request proceed), then
// forwards to the base transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	for _, r := range t.rules {
		if !r.matches(req) {
			continue
		}
		if _, fired := t.plan.Visit(faultinject.Site(r.Name)); !fired {
			continue
		}
		switch r.Kind {
		case KindLatency:
			t.latency.Add(1)
			if err := sleepCtx(req.Context(), r.Latency); err != nil {
				return nil, &injectedError{rule: r.Name, kind: r.Kind, err: err}
			}
		case KindDrop:
			t.drops.Add(1)
			return nil, &injectedError{rule: r.Name, kind: r.Kind, err: faultinject.ErrInjected}
		case KindHTTP500:
			t.http500s.Add(1)
			return syntheticResponse(req, http.StatusInternalServerError,
				fmt.Sprintf(`{"error":"chaos: injected 500 (rule %s)"}`, r.Name)), nil
		case KindBlackhole:
			t.blackhls.Add(1)
			<-req.Context().Done()
			return nil, &injectedError{rule: r.Name, kind: r.Kind, err: req.Context().Err()}
		}
	}
	return t.base.RoundTrip(req)
}

// injectedError is the transport error fabricated for drops and blackholes.
// It wraps faultinject.ErrInjected (drops) or the context error (blackholes)
// so callers can classify it; retry.Retryable treats both drops (unknown
// transport error) and 500s as retryable, and a blackhole surfaces as the
// caller's own deadline.
type injectedError struct {
	rule string
	kind Kind
	err  error
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s (rule %s): %v", e.kind, e.rule, e.err)
}

func (e *injectedError) Unwrap() error { return e.err }

// syntheticResponse fabricates a local response without touching the network.
func syntheticResponse(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode: status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// DefaultRules is the canonical placerload -chaos schedule: periodic latency
// spikes, dropped connections, and synthetic 500s across all coordinator
// traffic, with seeded injection points so two runs with the same seed hurt
// the same requests. Blackholes are left to targeted tests — a default-on
// blackhole turns every soak into a client-timeout stall.
func DefaultRules(latency time.Duration) []Rule {
	if latency <= 0 {
		latency = 25 * time.Millisecond
	}
	return []Rule{
		{Name: "latency-spike", Kind: KindLatency, Latency: latency, After: -1, Every: 7},
		{Name: "conn-drop", Kind: KindDrop, After: -1, Every: 11},
		{Name: "coord-500", Kind: KindHTTP500, After: -1, Every: 13},
	}
}
