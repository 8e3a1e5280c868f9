package fleet

import (
	"testing"
	"time"
)

func TestBreakerSuspectAndRecovery(t *testing.T) {
	clock := newFakeClock()
	b := newBreakerSet(3, 30*time.Second, clock.Now)

	if b.Suspect("w1") {
		t.Fatal("fresh worker already suspect")
	}
	for i := 0; i < 2; i++ {
		if b.Failure("w1") {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	if !b.Failure("w1") {
		t.Fatal("third failure should open the breaker")
	}
	if !b.Suspect("w1") || b.State("w1") != BreakerSuspect || b.Suspects() != 1 {
		t.Fatalf("state after open = %s (suspects %d)", b.State("w1"), b.Suspects())
	}

	// A success snaps it closed immediately.
	b.Success("w1")
	if b.Suspect("w1") || b.Suspects() != 0 {
		t.Fatal("success should close the breaker")
	}

	// Re-open, then let the reset window decay it (half-open: eligible again).
	for i := 0; i < 3; i++ {
		b.Failure("w1")
	}
	if !b.Suspect("w1") {
		t.Fatal("breaker should be open again")
	}
	clock.Advance(31 * time.Second)
	if b.Suspect("w1") {
		t.Fatal("suspicion should decay after the reset window")
	}

	// Forget drops all state.
	for i := 0; i < 3; i++ {
		b.Failure("w2")
	}
	b.Forget("w2")
	if b.Suspect("w2") || b.State("w2") != BreakerLive {
		t.Fatal("Forget should clear the entry")
	}
}
