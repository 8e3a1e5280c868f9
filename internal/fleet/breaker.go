package fleet

import (
	"sync"
	"time"
)

// Breaker state names, as exported on /metrics and /v1/fleet/overview.
const (
	BreakerLive    = "live"
	BreakerSuspect = "suspect"
)

// breakerSet tracks a per-worker circuit breaker with one intermediate
// state between live and dead: suspect. A worker that keeps heartbeating
// but fails dispatches (wedged listener, dying disk) trips to suspect
// after Threshold consecutive call failures; suspect workers are still
// eligible for work but are tried last, so each dispatch doubles as a
// half-open probe. Any successful call — or Reset elapsing since the last
// failure — closes the breaker. Death stays the registry's business: TTL
// expiry removes the worker (and its breaker entry) entirely.
type breakerSet struct {
	threshold int
	reset     time.Duration
	now       func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerEntry
}

type breakerEntry struct {
	failures int
	lastFail time.Time
}

func newBreakerSet(threshold int, reset time.Duration, now func() time.Time) *breakerSet {
	return &breakerSet{
		threshold: threshold,
		reset:     reset,
		now:       now,
		entries:   make(map[string]*breakerEntry),
	}
}

// Failure records one failed call to the worker and reports whether the
// breaker is now open (suspect).
func (b *breakerSet) Failure(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[id]
	if e == nil {
		e = &breakerEntry{}
		b.entries[id] = e
	}
	e.failures++
	e.lastFail = b.now()
	return e.failures >= b.threshold
}

// Success records one successful call, closing the breaker.
func (b *breakerSet) Success(id string) {
	b.mu.Lock()
	delete(b.entries, id)
	b.mu.Unlock()
}

// Forget drops all state for a worker that left the fleet.
func (b *breakerSet) Forget(id string) {
	b.mu.Lock()
	delete(b.entries, id)
	b.mu.Unlock()
}

// Suspect reports whether the worker's breaker is open. Entries decay back
// to live once reset has elapsed since the last failure, so a worker that
// went quiet (no dispatches to probe it) isn't penalized forever.
func (b *breakerSet) Suspect(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[id]
	if e == nil || e.failures < b.threshold {
		return false
	}
	if b.now().Sub(e.lastFail) >= b.reset {
		delete(b.entries, id)
		return false
	}
	return true
}

// State returns the exported state string for a worker.
func (b *breakerSet) State(id string) string {
	if b.Suspect(id) {
		return BreakerSuspect
	}
	return BreakerLive
}

// Suspects returns how many workers are currently suspect.
func (b *breakerSet) Suspects() int {
	b.mu.Lock()
	ids := make([]string, 0, len(b.entries))
	for id := range b.entries {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	n := 0
	for _, id := range ids {
		if b.Suspect(id) {
			n++
		}
	}
	return n
}
