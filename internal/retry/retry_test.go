package retry_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"testing"
	"time"

	"repro/internal/retry"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"context cancel", context.Canceled, false},
		// Without a caller context, a deadline error is indistinguishable
		// from http.Client's per-request timeout (which matches
		// errors.Is(err, context.DeadlineExceeded) since Go 1.16): a slow
		// peer, retryable. TestRetryableCtx covers the caller-gave-up case.
		{"deadline", context.DeadlineExceeded, true},
		{"client timeout", &url.Error{Op: "Post", Err: fmt.Errorf("net/http: request canceled (%w)", context.DeadlineExceeded)}, true},
		{"wrapped cancel", fmt.Errorf("submit: %w", context.Canceled), false},
		{"status 500", &retry.StatusError{Code: 500}, true},
		{"status 503", &retry.StatusError{Code: 503}, true},
		{"status 429", &retry.StatusError{Code: 429}, true},
		{"status 408", &retry.StatusError{Code: 408}, true},
		{"status 404", &retry.StatusError{Code: 404}, false},
		{"status 400", &retry.StatusError{Code: 400}, false},
		{"wrapped status 404", fmt.Errorf("get: %w", &retry.StatusError{Code: 404}), false},
		{"net op error", &net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{"url error around permanent", &url.Error{Op: "Post", Err: &retry.StatusError{Code: 400}}, false},
		{"unknown error", errors.New("mystery"), true},
	}
	for _, tc := range cases {
		if got := retry.Retryable(context.Background(), tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryableCtx: the caller's own context is the arbiter for timeout
// errors — a per-request timeout with the ctx still live is a slow peer
// (retry), the same error once the ctx is done means the caller gave up.
func TestRetryableCtx(t *testing.T) {
	timeout := &url.Error{Op: "Post", Err: fmt.Errorf("net/http: request canceled (%w)", context.DeadlineExceeded)}
	if !retry.Retryable(context.Background(), timeout) {
		t.Error("client timeout with live ctx must be retryable")
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if retry.Retryable(expired, timeout) {
		t.Error("timeout with the caller's deadline already expired must not be retryable")
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if retry.Retryable(cancelled, &retry.StatusError{Code: 500}) {
		t.Error("once the caller cancelled, even a retryable status is not worth retrying")
	}
	if !retry.Retryable(context.Background(), &retry.StatusError{Code: 500}) {
		t.Error("status 500 with live ctx must stay retryable")
	}
}

func TestBackoffBoundsAndReset(t *testing.T) {
	base := 100 * time.Millisecond
	b := retry.NewBackoff(base, time.Second, 7)
	prevMax := time.Duration(0)
	for i := 0; i < 8; i++ {
		d := b.Next()
		if d < time.Millisecond || d > time.Second+time.Second/4 {
			t.Fatalf("attempt %d: delay %s outside [1ms, cap+25%%]", i, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < base {
		t.Fatalf("delays never grew past the base: max %s", prevMax)
	}
	b.Reset()
	d := b.Next()
	// Post-reset the exponent is back at 0: base ± 25% jitter.
	if d > base+base/4 {
		t.Fatalf("post-reset delay %s, want ~base %s", d, base)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a := retry.NewBackoff(50*time.Millisecond, 0, 42)
	b := retry.NewBackoff(50*time.Millisecond, 0, 42)
	for i := 0; i < 6; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("same seed diverged at attempt %d: %s vs %s", i, da, db)
		}
	}
}
