package wirelength

import (
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/synth"
)

// refPointerWalk is the historical per-net evaluator: walk Design.Pins net
// by net through the AoS view, gather into throwaway buffers, call the
// kernel, scatter weighted gradients. It shares none of the SoA lane code,
// so it pins the gather/kernel/scatter refactor independently.
func refPointerWalk(d *netlist.Design, k Kernel, p float64, gx, gy []float64) float64 {
	sum := 0.0
	for e := 0; e < d.NumNets(); e++ {
		pins := d.NetPins(e)
		if len(pins) == 0 {
			continue
		}
		xs := make([]float64, len(pins))
		ys := make([]float64, len(pins))
		for i, pin := range pins {
			xs[i] = d.X[pin.Cell] + pin.Dx
			ys[i] = d.Y[pin.Cell] + pin.Dy
		}
		w := d.Nets[e].Weight
		var g []float64
		if gx != nil {
			g = make([]float64, len(pins))
		}
		sum += w * k(xs, p, g)
		if gx != nil {
			for i, pin := range pins {
				gx[pin.Cell] += w * g[i]
			}
		}
		sum += w * k(ys, p, g)
		if gy != nil {
			for i, pin := range pins {
				gy[pin.Cell] += w * g[i]
			}
		}
	}
	return sum
}

func refKernelFor(t *testing.T, name string) Kernel {
	t.Helper()
	switch name {
	case "ME":
		return NewMoreauKernel()
	case "WA":
		return NetWA
	case "LSE":
		return NetLSE
	case "BiG_CHKS":
		return NewBiGKernel()
	case "BiG_WA":
		return NewBiGWAKernel()
	case "HPWL":
		return NetHPWL
	}
	t.Fatalf("no reference kernel for %q", name)
	return nil
}

// TestSoAMatchesPointerWalk compares every model against the pointer-walk
// reference on a design spanning several net chunks: gradients must be
// equal (==), since each cell sums its weighted pin terms in the
// reference's scatter order; the value agrees to 1e-12 relative, since it is
// summed per net chunk. A second call on the same model, into buffers left
// holding the first call's gradients, and a value-only call (nil gradients)
// must repeat the first call exactly, which pins the reuse of the model's
// scratch. Net weights are perturbed after Build to pin the contract that
// lanes hold topology only and weights are read at evaluation time.
func TestSoAMatchesPointerWalk(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "soa", NumMovable: 400, NumPads: 8, NumNets: 500,
		AvgDegree: 3.8, Utilization: 0.7, TargetDensity: 1, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range d.Nets {
		d.Nets[e].Weight = 1 + float64(e%5)*0.25
	}
	n := d.NumCells()
	for _, name := range append(AllModelNames(), "BiG_WA", "HPWL") {
		t.Run(name, func(t *testing.T) {
			p := 2.5
			if name == "ME" {
				p = 1.5
			}
			gxRef := make([]float64, n)
			gyRef := make([]float64, n)
			vRef := refPointerWalk(d, refKernelFor(t, name), p, gxRef, gyRef)
			m, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gx := make([]float64, n)
			gy := make([]float64, n)
			v := m.WirelengthGrad(d, p, gx, gy)
			if math.Abs(v-vRef) > 1e-12*(1+math.Abs(vRef)) {
				t.Errorf("value %g, pointer-walk reference %g", v, vRef)
			}
			for i := 0; i < n; i++ {
				if gx[i] != gxRef[i] || gy[i] != gyRef[i] {
					t.Fatalf("grad mismatch at cell %d: (%v,%v) vs (%v,%v)",
						i, gx[i], gy[i], gxRef[i], gyRef[i])
				}
			}
			if v2 := m.WirelengthGrad(d, p, gx, gy); v2 != v {
				t.Errorf("repeated call value %v, first %v", v2, v)
			}
			for i := 0; i < n; i++ {
				if gx[i] != gxRef[i] || gy[i] != gyRef[i] {
					t.Fatalf("repeated call grad mismatch at cell %d", i)
				}
			}
			if v3 := m.WirelengthGrad(d, p, nil, nil); v3 != v {
				t.Errorf("value-only call %v, gradient call %v", v3, v)
			}
		})
	}
}

// TestTotalHPWLMatchesPointerWalk pins the lane-based TotalHPWL against a
// direct AoS walk — these must agree exactly (identical comparison order).
func TestTotalHPWLMatchesPointerWalk(t *testing.T) {
	d, err := synth.Generate(synth.Spec{
		Name: "hp", NumMovable: 300, NumPads: 6, NumNets: 350,
		AvgDegree: 3.5, Utilization: 0.7, TargetDensity: 1, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for e := 0; e < d.NumNets(); e++ {
		pins := d.NetPins(e)
		if len(pins) == 0 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, pin := range pins {
			x := d.X[pin.Cell] + pin.Dx
			y := d.Y[pin.Cell] + pin.Dy
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		want += d.Nets[e].Weight * ((maxX - minX) + (maxY - minY))
	}
	if got := TotalHPWL(d); got != want {
		t.Errorf("TotalHPWL = %g, pointer-walk reference %g", got, want)
	}
}
