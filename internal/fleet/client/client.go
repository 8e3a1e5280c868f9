// Package client is the tenant-side SDK for the fleet coordinator: it
// submits jobs, polls them to completion, and — critically — honors the
// coordinator's admission-control backpressure, sleeping out 429 responses
// for exactly the Retry-After the server advertised instead of hammering a
// saturated fleet.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/retry"
	"repro/internal/service"
)

// RetryAfterError is a 429 pushback from the coordinator, carrying the
// parsed Retry-After interval.
type RetryAfterError struct {
	After  time.Duration
	Status int
	Msg    string
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("fleet pushback (%d, retry after %s): %s", e.Status, e.After, e.Msg)
}

// Client talks to one coordinator on behalf of one tenant.
type Client struct {
	// Base is the coordinator base URL.
	Base string
	// Tenant is sent as the X-Tenant header ("" means the default tenant).
	Tenant string
	// HTTP is the transport (nil: 10s timeout default).
	HTTP *http.Client
	// Poll is the status poll interval for the wait helpers (default 100ms).
	Poll time.Duration
	// Retries bounds the transient-failure retries SubmitRetry makes beyond
	// the first attempt (0: default 4). 429 pushback never counts against
	// this budget — it is the coordinator pacing us, not failing.
	Retries int
	// Backoff is the base delay between transient retries (0: default 100ms),
	// growing exponentially with ±25% jitter.
	Backoff time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (c *Client) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 100 * time.Millisecond
}

// Submit sends one job spec. A 429 returns *RetryAfterError so callers can
// implement their own pacing; SubmitRetry retries internally instead.
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (fleet.JobView, error) {
	return c.SubmitIdem(ctx, spec, "")
}

// SubmitIdem submits with an idempotency key: the coordinator journals the
// key with the accepted job, so a retried submit (same key) returns the
// existing job instead of duplicating it — across coordinator restarts too.
// An empty key degrades to a plain Submit. Non-429 HTTP failures wrap
// *retry.StatusError so retry.Retryable can classify them.
func (c *Client) SubmitIdem(ctx context.Context, spec service.JobSpec, idemKey string) (fleet.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return fleet.JobView{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fleet.JobView{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	if idemKey != "" {
		req.Header.Set("X-Idempotency-Key", idemKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fleet.JobView{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var v fleet.JobView
		err := json.NewDecoder(resp.Body).Decode(&v)
		return v, err
	case http.StatusTooManyRequests:
		after := parseRetryAfter(resp.Header.Get("Retry-After"))
		msg := readError(resp.Body)
		return fleet.JobView{}, &RetryAfterError{After: after, Status: resp.StatusCode, Msg: msg}
	default:
		return fleet.JobView{}, fmt.Errorf("fleet submit: %w",
			&retry.StatusError{Code: resp.StatusCode, Msg: readError(resp.Body)})
	}
}

// SubmitRetry is the chaos-hardened submit: it retries transient failures
// (connection drops, 5xx, timeouts) with jittered exponential backoff under
// the idempotency key, and sleeps out 429 pushback for the advertised
// Retry-After without consuming the retry budget. The key makes the retries
// duplicate-safe: however many submits actually reach the coordinator, at
// most one job exists. Permanent errors (4xx other than 408/429) return
// immediately. rejected counts absorbed 429s, retries counts transient
// re-sends.
func (c *Client) SubmitRetry(ctx context.Context, spec service.JobSpec, idemKey string) (v fleet.JobView, rejected, retries int, err error) {
	budget := c.Retries
	if budget <= 0 {
		budget = 4
	}
	backoff := retry.NewBackoff(c.Backoff, 0, time.Now().UnixNano())
	for {
		v, err = c.SubmitIdem(ctx, spec, idemKey)
		if err == nil {
			return v, rejected, retries, nil
		}
		var ra *RetryAfterError
		switch {
		case errors.As(err, &ra):
			rejected++
			if serr := sleepCtx(ctx, ra.After); serr != nil {
				return fleet.JobView{}, rejected, retries, serr
			}
		case retry.Retryable(ctx, err) && retries < budget:
			retries++
			if serr := sleepCtx(ctx, backoff.Next()); serr != nil {
				return fleet.JobView{}, rejected, retries, serr
			}
		default:
			return fleet.JobView{}, rejected, retries, err
		}
	}
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Get fetches one job's fleet view.
func (c *Client) Get(ctx context.Context, id string) (fleet.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return fleet.JobView{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fleet.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.JobView{}, fmt.Errorf("fleet get %s: %w", id,
			&retry.StatusError{Code: resp.StatusCode, Msg: readError(resp.Body)})
	}
	var v fleet.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// WaitTerminal polls a job until its worker-reported state is terminal
// (done, failed, or cancelled), returning the final view. Transient poll
// failures (drops, 5xx — a coordinator mid-restart) are absorbed and polling
// continues until ctx expires; permanent errors (404 for an unknown job)
// return immediately.
func (c *Client) WaitTerminal(ctx context.Context, id string) (fleet.JobView, error) {
	t := time.NewTicker(c.poll())
	defer t.Stop()
	for {
		v, err := c.Get(ctx, id)
		if err != nil && !retry.Retryable(ctx, err) {
			return fleet.JobView{}, err
		}
		if err == nil && service.State(v.State).Terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			if err != nil {
				return fleet.JobView{}, err
			}
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// Cancel cancels a job wherever it lives.
func (c *Client) Cancel(ctx context.Context, id string) (fleet.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return fleet.JobView{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fleet.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.JobView{}, fmt.Errorf("fleet cancel %s: status %d: %s", id, resp.StatusCode, readError(resp.Body))
	}
	var v fleet.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// Fleet fetches the fleet status document (workers + routing counters).
func (c *Client) Fleet(ctx context.Context) (fleet.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/fleet", nil)
	if err != nil {
		return fleet.Status{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fleet.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.Status{}, fmt.Errorf("fleet status: %d: %s", resp.StatusCode, readError(resp.Body))
	}
	var s fleet.Status
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// parseRetryAfter decodes a delta-seconds Retry-After value, falling back
// to one second when missing or malformed.
func parseRetryAfter(s string) time.Duration {
	if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// readError extracts the {"error": ...} body, or raw text.
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}
