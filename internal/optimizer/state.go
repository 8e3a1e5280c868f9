package optimizer

import "fmt"

// State is a serializable dump of an optimizer's internal iterate and
// history, sufficient to restore it mid-run and continue bit-exactly: a
// restored optimizer produces the same sequence of Step results as one that
// was never interrupted. The layout is optimizer-specific but uses only flat
// primitive slices, so any codec (e.g. internal/checkpoint) can frame it
// without knowing which optimizer produced it.
type State struct {
	// Kind names the producing optimizer: "nesterov", "adam", "momentum".
	Kind string
	// Scalars, Ints, Bools, Vectors hold the optimizer's state in a fixed
	// per-kind order documented on each Snapshot method.
	Scalars []float64
	Ints    []int64
	Bools   []bool
	Vectors [][]float64
}

// checkShape validates the common State invariants before a Restore.
func checkShape(s State, kind string, scalars, ints, bools, vectors, dim int) error {
	if s.Kind != kind {
		return fmt.Errorf("optimizer: state is for %q, not %q", s.Kind, kind)
	}
	if len(s.Scalars) != scalars || len(s.Ints) != ints || len(s.Bools) != bools || len(s.Vectors) != vectors {
		return fmt.Errorf("optimizer: %s state has shape %d/%d/%d/%d, want %d/%d/%d/%d",
			kind, len(s.Scalars), len(s.Ints), len(s.Bools), len(s.Vectors),
			scalars, ints, bools, vectors)
	}
	for i, v := range s.Vectors {
		if len(v) != dim {
			return fmt.Errorf("optimizer: %s state vector %d has %d entries, want %d", kind, i, len(v), dim)
		}
	}
	return nil
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

// Snapshot returns the Nesterov state. Layout: Scalars = [a, alpha0,
// alphaMax, lastAlpha]; Ints = [maxBacktrack, evalCount]; Bools =
// [haveLastStep]; Vectors = [u, v, prevV, g, prevG].
func (o *Nesterov) Snapshot() State {
	return State{
		Kind:    "nesterov",
		Scalars: []float64{o.a, o.alpha0, o.AlphaMax, o.lastAlpha},
		Ints:    []int64{int64(o.MaxBacktrack), int64(o.evalCount)},
		Bools:   []bool{o.haveLastStep},
		Vectors: [][]float64{cloneVec(o.u), cloneVec(o.v), cloneVec(o.prevV), cloneVec(o.g), cloneVec(o.prevG)},
	}
}

// Restore overwrites the Nesterov state from a snapshot.
func (o *Nesterov) Restore(s State) error {
	if err := checkShape(s, "nesterov", 4, 2, 1, 5, len(o.u)); err != nil {
		return err
	}
	o.a, o.alpha0, o.AlphaMax, o.lastAlpha = s.Scalars[0], s.Scalars[1], s.Scalars[2], s.Scalars[3]
	o.MaxBacktrack = int(s.Ints[0])
	o.evalCount = int(s.Ints[1])
	o.haveLastStep = s.Bools[0]
	copy(o.u, s.Vectors[0])
	copy(o.v, s.Vectors[1])
	copy(o.prevV, s.Vectors[2])
	copy(o.g, s.Vectors[3])
	copy(o.prevG, s.Vectors[4])
	return nil
}

// Snapshot returns the Adam state. Layout: Scalars = [lr, beta1, beta2,
// eps]; Ints = [t]; Vectors = [x, m, v2].
func (o *Adam) Snapshot() State {
	return State{
		Kind:    "adam",
		Scalars: []float64{o.LR, o.Beta1, o.Beta2, o.Eps},
		Ints:    []int64{int64(o.t)},
		Vectors: [][]float64{cloneVec(o.x), cloneVec(o.m), cloneVec(o.v2)},
	}
}

// Restore overwrites the Adam state from a snapshot.
func (o *Adam) Restore(s State) error {
	if err := checkShape(s, "adam", 4, 1, 0, 3, len(o.x)); err != nil {
		return err
	}
	o.LR, o.Beta1, o.Beta2, o.Eps = s.Scalars[0], s.Scalars[1], s.Scalars[2], s.Scalars[3]
	o.t = int(s.Ints[0])
	copy(o.x, s.Vectors[0])
	copy(o.m, s.Vectors[1])
	copy(o.v2, s.Vectors[2])
	return nil
}

// Snapshot returns the Momentum state. Layout: Scalars = [lr, beta];
// Vectors = [x, vel].
func (o *Momentum) Snapshot() State {
	return State{
		Kind:    "momentum",
		Scalars: []float64{o.LR, o.Beta},
		Vectors: [][]float64{cloneVec(o.x), cloneVec(o.vel)},
	}
}

// Restore overwrites the Momentum state from a snapshot.
func (o *Momentum) Restore(s State) error {
	if err := checkShape(s, "momentum", 2, 0, 0, 2, len(o.x)); err != nil {
		return err
	}
	o.LR, o.Beta = s.Scalars[0], s.Scalars[1]
	copy(o.x, s.Vectors[0])
	copy(o.vel, s.Vectors[1])
	return nil
}
