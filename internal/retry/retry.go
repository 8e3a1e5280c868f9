// Package retry is the one retry policy of the repository: the error
// classifier that tells a transient failure from a permanent one, and the
// jittered exponential backoff between attempts. The fleet agent's
// heartbeat, the coordinator's dispatch, the tenant client and checkpoint
// writes all use it. Stdlib only, so any package can import it.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// StatusError is returned by fleet HTTP helpers (and the tenant client) when
// the remote answered with an unexpected status, so callers can classify the
// failure as retryable or permanent instead of string-matching.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("http status %d", e.Code)
	}
	return fmt.Sprintf("http status %d: %s", e.Code, e.Msg)
}

// retryableStatus reports whether an HTTP status code names a transient
// condition worth retrying: timeouts, pushback, and server-side errors.
// 4xx client errors (other than 408/429) are permanent — retrying a bad
// request cannot fix the request.
func retryableStatus(code int) bool {
	switch {
	case code == 408 || code == 429:
		return true
	case code >= 500:
		return true
	default:
		return false
	}
}

// Retryable classifies an error from an HTTP call made under ctx. Once ctx
// is done nothing is retryable: the deadline or cancel belongs to the
// caller, not the peer. Explicit cancellation is not retryable either.
// Transport-level failures — refused connections, resets, and timeouts,
// including http.Client's per-request timeout (which since Go 1.16 also
// matches errors.Is(err, context.DeadlineExceeded)) — are retryable while
// ctx is live: the peer may be slow or mid-restart. StatusError is
// retryable for 408, 429 and 5xx. A caller with no request context passes
// context.Background().
func Retryable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return retryableStatus(se.Code)
	}
	// Everything else out of the transport — per-request timeouts, refused
	// connections, resets, EOF mid-body, closed connections — is treated as
	// transient; callers bound the retries.
	return true
}

// Backoff produces jittered exponential delays: base·2^n with ±25% jitter,
// capped. The zero value is unusable; use NewBackoff. Safe for concurrent
// use.
type Backoff struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	n   int
	rng *rand.Rand
}

// NewBackoff builds a backoff schedule. base <= 0 defaults to 100ms, cap <=
// 0 to 30·base. seed fixes the jitter stream so tests are reproducible.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 30 * base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay in the schedule and advances it.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.base << b.n
	if d > b.cap || d <= 0 {
		d = b.cap
	} else {
		b.n++
	}
	// ±25% jitter keeps a fleet of retriers from synchronizing.
	j := time.Duration(b.rng.Int63n(int64(d)/2+1)) - d/4
	d += j
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Reset rewinds the schedule to the base delay after a success.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.n = 0
	b.mu.Unlock()
}
