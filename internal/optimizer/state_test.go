package optimizer

import (
	"math"
	"testing"
)

// quadEval is a smooth non-separable objective with enough curvature
// variation to exercise the BB step prediction and backtracking.
func quadEval(pos, grad []float64) float64 {
	val := 0.0
	n := len(pos)
	for i := range pos {
		c := 1.0 + float64(i%7)
		d := pos[i] - float64(i%3)
		val += 0.5 * c * d * d
		grad[i] = c * d
		if i+1 < n {
			val += 0.1 * pos[i] * pos[i+1]
			grad[i] += 0.1 * pos[i+1]
			grad[i+1] += 0.1 * pos[i]
		}
	}
	return val
}

func startVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*1.7) * 3
	}
	return x
}

// TestSnapshotRestoreBitExact runs each optimizer for a while, snapshots it,
// keeps the original going, restores a fresh optimizer from the snapshot,
// and checks that both produce bit-identical iterates from there on.
func TestSnapshotRestoreBitExact(t *testing.T) {
	const n, pre, post = 40, 25, 25
	project := func(p []float64) {
		for i := range p {
			if p[i] > 50 {
				p[i] = 50
			} else if p[i] < -50 {
				p[i] = -50
			}
		}
	}
	cases := []struct {
		name string
		make func() Optimizer
	}{
		{"nesterov", func() Optimizer { return NewNesterov(startVec(n), 0.1, project) }},
		{"adam", func() Optimizer { return NewAdam(startVec(n), 0.05, project) }},
		{"momentum", func() Optimizer { return NewMomentum(startVec(n), 0.01, 0.9, project) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.make()
			for i := 0; i < pre; i++ {
				orig.Step(quadEval)
			}
			snap := orig.Snapshot()
			if snap.Kind != tc.name {
				t.Fatalf("Snapshot Kind = %q, want %q", snap.Kind, tc.name)
			}

			resumed := tc.make()
			if err := resumed.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			for i := 0; i < post; i++ {
				vo := orig.Step(quadEval)
				vr := resumed.Step(quadEval)
				if vo != vr {
					t.Fatalf("step %d: objective diverged: %v vs %v", i, vo, vr)
				}
			}
			po, pr := orig.Pos(), resumed.Pos()
			for i := range po {
				if po[i] != pr[i] {
					t.Fatalf("pos[%d] diverged after resume: %v vs %v", i, po[i], pr[i])
				}
			}
		})
	}
}

// TestSnapshotIsDeepCopy mutating the snapshot must not affect the optimizer.
func TestSnapshotIsDeepCopy(t *testing.T) {
	o := NewNesterov(startVec(8), 0.1, nil)
	o.Step(quadEval)
	snap := o.Snapshot()
	before := append([]float64(nil), o.Pos()...)
	for _, v := range snap.Vectors {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	for i, v := range o.Pos() {
		if v != before[i] {
			t.Fatal("Snapshot shares memory with the optimizer")
		}
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	o := NewNesterov(startVec(8), 0.1, nil)
	good := o.Snapshot()

	wrongKind := good
	wrongKind.Kind = "adam"
	if err := o.Restore(wrongKind); err == nil {
		t.Error("Restore accepted a state of the wrong kind")
	}

	short := o.Snapshot()
	short.Vectors[2] = short.Vectors[2][:3]
	if err := o.Restore(short); err == nil {
		t.Error("Restore accepted a state with a short vector")
	}

	missing := o.Snapshot()
	missing.Scalars = missing.Scalars[:1]
	if err := o.Restore(missing); err == nil {
		t.Error("Restore accepted a state with missing scalars")
	}

	if err := o.Restore(good); err != nil {
		t.Errorf("Restore rejected its own snapshot: %v", err)
	}
}
