package ecocache

import (
	"fmt"
	"hash/fnv"
)

// ConfigFingerprint covers every configuration knob that changes the
// placement a job produces. Two jobs with equal design hashes and equal
// fingerprints are the same computation, so the cached result of one answers
// the other exactly. Display-only knobs (trajectory recording, observability,
// timeouts) are deliberately absent, and so is the deprecated worker count,
// which the engine ignores. The target density is the design's own, so the
// design hash covers it, and the smoothing schedules' constants are fixed in
// the engine.
type ConfigFingerprint struct {
	Model        string
	GridX, GridY int
	MaxIters     int
	StopOverflow float64
	NoFillers    bool
	Seed         int64
	Init         string
	Optimizer    string
	Schedule     string
	Precondition bool
	// Flow shape: which stages ran after global placement.
	GPOnly       bool
	SkipDetailed bool
	UseTetris    bool
	// Guard shape: a guard rollback replays iterations from a snapshot, so
	// guarded and unguarded runs of the same spec may produce different bits.
	Guard        bool
	GuardRetries int
}

// Key condenses the fingerprint to the uint64 half of the cache key (FNV-64a
// over an unambiguous textual rendering of every field).
func (f ConfigFingerprint) Key() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "m=%s|g=%dx%d|it=%d|so=%x|nf=%t|s=%d|in=%s|op=%s|sc=%s|pc=%t|go=%t|sd=%t|ut=%t|gd=%t|gr=%d",
		f.Model, f.GridX, f.GridY, f.MaxIters, f.StopOverflow,
		f.NoFillers, f.Seed, f.Init, f.Optimizer,
		f.Schedule, f.Precondition, f.GPOnly, f.SkipDetailed, f.UseTetris,
		f.Guard, f.GuardRetries)
	return h.Sum64()
}
