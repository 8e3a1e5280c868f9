package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func testRegion() geom.Rect { return geom.Rect{XL: 0, YL: 0, XH: 64, YH: 32} }

func TestNewGridRejectsBadShapes(t *testing.T) {
	for _, dims := range [][2]int{{0, 8}, {8, 0}, {7, 8}, {8, 12}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", dims)
				}
			}()
			NewGrid(testRegion(), dims[0], dims[1])
		}()
	}
}

func TestBinGeometry(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8)
	if g.BinW != 4 || g.BinH != 4 {
		t.Fatalf("bin size = %gx%g, want 4x4", g.BinW, g.BinH)
	}
}

// sum returns the total of a density map.
func sum(m []float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

func TestStampRectConservesArea(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8)
	g.StampFixedRect(3, 5, 13, 11, 1)
	if got, want := sum(g.FixedDensity), 60.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("stamped area = %g, want %g", got, want)
	}
	// A rect crossing the region boundary only deposits the clipped part.
	clear(g.FixedDensity)
	g.StampFixedRect(-10, -10, 4, 4, 1)
	if got, want := sum(g.FixedDensity), 16.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("clipped stamped area = %g, want %g", got, want)
	}
}

func TestStampRectDistribution(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8)
	// A 2x2 rect exactly in the corner of bin (0,0).
	g.StampFixedRect(0, 0, 2, 2, 1)
	if g.FixedDensity[0] != 4 {
		t.Errorf("bin(0,0) = %g, want 4", g.FixedDensity[0])
	}
	// A rect straddling two bins horizontally splits proportionally.
	clear(g.FixedDensity)
	g.StampFixedRect(3, 0, 5, 1, 1)
	if math.Abs(g.FixedDensity[0]-1) > 1e-12 || math.Abs(g.FixedDensity[1]-1) > 1e-12 {
		t.Errorf("straddle split = %g, %g, want 1, 1", g.FixedDensity[0], g.FixedDensity[1])
	}
}

func TestStampSmoothedConservesArea(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8)
	// Entry 0 is a tiny cell (1x1, smaller than sqrt2*4), entry 1 a large
	// one (20x10), both centred at (32, 16).
	f := NewFootprints(g, []float64{0.5, 10}, []float64{0.5, 5})
	cx, cy := []float64{32, 32}, []float64{16, 16}
	// Tiny cell: expanded but area-preserving.
	f.Stamp(cx, cy, 0, 1)
	if got := sum(g.Density); math.Abs(got-1) > 1e-9 {
		t.Errorf("smoothed stamp area = %g, want 1", got)
	}
	// Large cell: stamped at true size.
	g.Clear()
	f.Stamp(cx, cy, 1, 2)
	if got := sum(g.Density); math.Abs(got-200) > 1e-9 {
		t.Errorf("large stamp area = %g, want 200", got)
	}
}

func TestOverflow(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8) // bin area 16
	// One bin at double target, everything else empty.
	g.Density[0] = 32
	movableArea := 32.0
	phi := g.Overflow(1.0, movableArea)
	// overflow = (32-16)/32 = 0.5
	if math.Abs(phi-0.5) > 1e-12 {
		t.Errorf("overflow = %g, want 0.5", phi)
	}
	// Fixed density shrinks the free area of the bin.
	g.FixedDensity[0] = 8
	phi = g.Overflow(1.0, movableArea)
	if math.Abs(phi-(32-8)/32.0) > 1e-12 {
		t.Errorf("overflow with blockage = %g, want 0.75", phi)
	}
	// Uniform spread at exactly target density has no overflow.
	g.Clear()
	clear(g.FixedDensity)
	for i := range g.Density {
		g.Density[i] = 8 // half of bin area, target 0.5
	}
	if phi := g.Overflow(0.5, 8*16*8); phi != 0 {
		t.Errorf("balanced overflow = %g, want 0", phi)
	}
}

func TestOverflowZeroMovableArea(t *testing.T) {
	g := NewGrid(testRegion(), 8, 8)
	if g.Overflow(1, 0) != 0 {
		t.Error("overflow with no movable area should be 0")
	}
}

// The spectral solver must reproduce the analytic solution for a single
// cosine mode: rho = cos(wu x)cos(wv y) => psi = rho/(wu^2+wv^2),
// Ex = wu/(wu^2+wv^2) sin(wu x)cos(wv y).
func TestElectroSingleModeAnalytic(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 128, YH: 64}, 64, 32)
	e := NewElectro(g)
	u0, v0 := 3, 2
	wu := math.Pi * float64(u0) / g.Region.W()
	wv := math.Pi * float64(v0) / g.Region.H()
	for iy := 0; iy < g.Ny; iy++ {
		y := (float64(iy) + 0.5) * g.BinH
		for ix := 0; ix < g.Nx; ix++ {
			x := (float64(ix) + 0.5) * g.BinW
			e.Rho[iy*g.Nx+ix] = math.Cos(wu*x) * math.Cos(wv*y)
		}
	}
	e.Solve()
	k2 := wu*wu + wv*wv
	for iy := 0; iy < g.Ny; iy++ {
		y := (float64(iy) + 0.5) * g.BinH
		for ix := 0; ix < g.Nx; ix++ {
			x := (float64(ix) + 0.5) * g.BinW
			i := iy*g.Nx + ix
			wantPsi := math.Cos(wu*x) * math.Cos(wv*y) / k2
			if math.Abs(e.Psi[i]-wantPsi) > 1e-9 {
				t.Fatalf("psi[%d,%d] = %g, want %g", ix, iy, e.Psi[i], wantPsi)
			}
			wantEx := wu / k2 * math.Sin(wu*x) * math.Cos(wv*y)
			if math.Abs(e.Ex[i]-wantEx) > 1e-9 {
				t.Fatalf("Ex[%d,%d] = %g, want %g", ix, iy, e.Ex[i], wantEx)
			}
			wantEy := wv / k2 * math.Cos(wu*x) * math.Sin(wv*y)
			if math.Abs(e.Ey[i]-wantEy) > 1e-9 {
				t.Fatalf("Ey[%d,%d] = %g, want %g", ix, iy, e.Ey[i], wantEy)
			}
		}
	}
}

// For arbitrary density, the interior of the solved potential must satisfy
// the Poisson equation laplacian(psi) = -(rho - mean(rho)) to discretization
// accuracy, and the field must be the negative gradient of psi.
func TestElectroPoissonResidual(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 64, YH: 64}, 64, 64)
	e := NewElectro(g)
	rng := rand.New(rand.NewSource(1))
	// Smooth random density: a few random low-frequency modes.
	type mode struct {
		u, v int
		amp  float64
	}
	modes := []mode{}
	for k := 0; k < 6; k++ {
		modes = append(modes, mode{1 + rng.Intn(5), 1 + rng.Intn(5), rng.NormFloat64()})
	}
	for iy := 0; iy < g.Ny; iy++ {
		y := (float64(iy) + 0.5) * g.BinH
		for ix := 0; ix < g.Nx; ix++ {
			x := (float64(ix) + 0.5) * g.BinW
			s := 0.0
			for _, m := range modes {
				s += m.amp * math.Cos(math.Pi*float64(m.u)*x/64) * math.Cos(math.Pi*float64(m.v)*y/64)
			}
			e.Rho[iy*g.Nx+ix] = s
		}
	}
	e.Solve()
	mean := 0.0
	for _, v := range e.Rho {
		mean += v
	}
	mean /= float64(len(e.Rho))

	h := g.BinW
	idx := func(ix, iy int) int { return iy*g.Nx + ix }
	for iy := 2; iy < g.Ny-2; iy++ {
		for ix := 2; ix < g.Nx-2; ix++ {
			lap := (e.Psi[idx(ix+1, iy)] + e.Psi[idx(ix-1, iy)] +
				e.Psi[idx(ix, iy+1)] + e.Psi[idx(ix, iy-1)] -
				4*e.Psi[idx(ix, iy)]) / (h * h)
			want := -(e.Rho[idx(ix, iy)] - mean)
			if math.Abs(lap-want) > 0.05*(1+math.Abs(want)) {
				t.Fatalf("Poisson residual at (%d,%d): lap=%g want=%g", ix, iy, lap, want)
			}
			gradX := (e.Psi[idx(ix+1, iy)] - e.Psi[idx(ix-1, iy)]) / (2 * h)
			if math.Abs(e.Ex[idx(ix, iy)]+gradX) > 0.02*(1+math.Abs(gradX)) {
				t.Fatalf("Ex != -dpsi/dx at (%d,%d): %g vs %g", ix, iy, e.Ex[idx(ix, iy)], -gradX)
			}
		}
	}
}

// Uniform density produces (numerically) zero field everywhere.
func TestElectroUniformDensityZeroField(t *testing.T) {
	g := NewGrid(testRegion(), 32, 16)
	e := NewElectro(g)
	for i := range e.Rho {
		e.Rho[i] = 0.7
	}
	e.Solve()
	for i := range e.Ex {
		if math.Abs(e.Ex[i]) > 1e-9 || math.Abs(e.Ey[i]) > 1e-9 {
			t.Fatalf("field nonzero under uniform density: (%g,%g)", e.Ex[i], e.Ey[i])
		}
	}
}

// The field must point away from a concentrated blob (positive charge repels
// positive test charge), pushing cells apart.
func TestElectroFieldPointsAwayFromBlob(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 64, YH: 64}, 64, 64)
	e := NewElectro(g)
	// Blob in the center: one 8x8 cell, wider than the smoothing floor, so
	// it stamps at its true size.
	NewFootprints(g, []float64{4}, []float64{4}).Stamp([]float64{32}, []float64{32}, 0, 1)
	e.SolveFromGrid()
	// Right of the blob: Ex should be positive (pointing right/outward).
	iRight := 32*g.Nx + 44
	if e.Ex[iRight] <= 0 {
		t.Errorf("Ex right of blob = %g, want > 0", e.Ex[iRight])
	}
	iLeft := 32*g.Nx + 20
	if e.Ex[iLeft] >= 0 {
		t.Errorf("Ex left of blob = %g, want < 0", e.Ex[iLeft])
	}
	iUp := 44*g.Nx + 32
	if e.Ey[iUp] <= 0 {
		t.Errorf("Ey above blob = %g, want > 0", e.Ey[iUp])
	}
}

// Gather must act as the adjoint of Stamp: gathering a delta-field returns
// exactly the stamped weight of that bin.
func TestSampleSmoothedAdjoint(t *testing.T) {
	g := NewGrid(testRegion(), 16, 8)
	ex := make([]float64, 16*8)
	ey := make([]float64, 16*8)
	targetBin := 3*16 + 5
	ex[targetBin] = 1

	cx, cy, w, h := 22.0, 13.0, 3.0, 2.0
	f := NewFootprints(g, []float64{w / 2}, []float64{h / 2})
	f.Stamp([]float64{cx}, []float64{cy}, 0, 1)
	fx, fy := make([]float64, 1), make([]float64, 1)
	f.Gather(ex, ey, fx, fy)
	if math.Abs(fx[0]-g.Density[targetBin]) > 1e-12 {
		t.Errorf("Gather = %g, stamped weight = %g", fx[0], g.Density[targetBin])
	}
}

func TestEnergyNonNegativeForBlob(t *testing.T) {
	g := NewGrid(geom.Rect{XL: 0, YL: 0, XH: 64, YH: 64}, 32, 32)
	e := NewElectro(g)
	NewFootprints(g, []float64{8}, []float64{8}).Stamp([]float64{32}, []float64{32}, 0, 1)
	e.SolveFromGrid()
	if e.Energy() <= 0 {
		t.Errorf("blob energy = %g, want > 0", e.Energy())
	}
}
