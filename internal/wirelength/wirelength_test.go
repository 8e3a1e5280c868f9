package wirelength

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// namedKernels lists every differentiable kernel under test.
func namedKernels() map[string]Kernel {
	return map[string]Kernel{
		"LSE": NetLSE,
		"WA":  NetWA,
		"BiG": NewBiGKernel(),
		"ME":  NewMoreauKernel(),
	}
}

func TestKernelGradientsMatchFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, k := range namedKernels() {
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 100; iter++ {
				n := 2 + rng.Intn(8)
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64() * 20
				}
				p := 0.5 + rng.Float64()*5
				g := make([]float64, n)
				k(x, p, g)
				const h = 1e-5
				for i := range x {
					xp := append([]float64(nil), x...)
					xm := append([]float64(nil), x...)
					xp[i] += h
					xm[i] -= h
					fd := (k(xp, p, nil) - k(xm, p, nil)) / (2 * h)
					if math.Abs(fd-g[i]) > 2e-4*(1+math.Abs(fd)) {
						t.Fatalf("%s grad[%d] = %g, fd %g (x=%v p=%g)", name, i, g[i], fd, x, p)
					}
				}
			}
		})
	}
}

func TestKernelsConvergeToHPWL(t *testing.T) {
	x := []float64{-40, 3, 18, 77}
	want := 117.0
	for name, k := range namedKernels() {
		v := k(x, 0.01, nil)
		if math.Abs(v-want) > 0.2 {
			t.Errorf("%s at p=0.01: %g, want ~%g", name, v, want)
		}
	}
}

// Known one-sided biases: LSE and BiG over-approximate HPWL; WA and the
// Moreau envelope under-approximate it (ME's +t offset keeps it within +t).
func TestKernelBiasDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(8)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		p := 0.1 + rng.Float64()*20
		w := NetHPWL(x, 0, nil)
		if v := NetLSE(x, p, nil); v < w-1e-9 {
			t.Fatalf("LSE %g under HPWL %g", v, w)
		}
		if v := NetBiGCHKS(x, p, nil); v < w-1e-9 {
			t.Fatalf("BiG %g under HPWL %g", v, w)
		}
		if v := NetWA(x, p, nil); v > w+1e-9 {
			t.Fatalf("WA %g over HPWL %g", v, w)
		}
		if v := NetMoreau(x, p, nil); v > w+p+1e-9 {
			t.Fatalf("ME+t %g over HPWL+t %g", v, w+p)
		}
	}
}

// Section II-D(1): the naive exponential kernels overflow where the
// stabilized ones and the Moreau envelope stay finite.
func TestNumericalStabilityNaiveVsStable(t *testing.T) {
	x := []float64{0, 350, 700, 1000} // realistic placement spread
	gamma := 1.0

	if v := NetWANaive(x, gamma, nil); !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.Errorf("naive WA unexpectedly finite: %g", v)
	}
	if v := NetLSENaive(x, gamma, nil); !math.IsInf(v, 1) && !math.IsNaN(v) {
		t.Errorf("naive LSE unexpectedly finite: %g", v)
	}

	for name, k := range namedKernels() {
		v := k(x, gamma, nil)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("stable %s overflowed: %g", name, v)
		}
		if math.Abs(v-1000) > 10 {
			t.Errorf("stable %s far from HPWL: %g", name, v)
		}
	}
}

// Theorem 5: the WA smooth maximum has gradient components summing to 1.
func TestWASmoothMaxGradientSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 50
		}
		p := 0.1 + rng.Float64()*10
		g := make([]float64, n)
		NetWASmoothMax(x, p, g)
		s := 0.0
		for _, v := range g {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("smooth-max grad sum = %g, want 1 (x=%v)", s, x)
		}
	}
}

// Corollary 2 (and the analogous property for every model): full-span
// gradient components sum to 0.
func TestKernelGradientsSumToZero(t *testing.T) {
	for name, k := range namedKernels() {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(12)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 100
			}
			p := 0.1 + rng.Float64()*10
			g := make([]float64, n)
			k(x, p, g)
			s, scale := 0.0, 0.0
			for _, v := range g {
				s += v
				scale += math.Abs(v)
			}
			return math.Abs(s) <= 1e-8*(1+scale)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Permutation invariance: shuffling pin order leaves the value unchanged
// for LSE/WA/ME. BiG folds CHKS sequentially, so its over-approximation
// amount genuinely depends on fold order; its values under permutation may
// differ by up to the smoothing amount, never more.
func TestKernelPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, k := range namedKernels() {
		tol := 1e-12
		if name == "BiG" {
			tol = 1e-9 // fold order changes rounding, not semantics
		}
		for iter := 0; iter < 50; iter++ {
			n := 2 + rng.Intn(8)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 10
			}
			p := 0.5 + rng.Float64()*3
			v1 := k(x, p, nil)
			perm := rng.Perm(n)
			y := make([]float64, n)
			for i, j := range perm {
				y[i] = x[j]
			}
			v2 := k(y, p, nil)
			if name == "BiG" {
				// Order changes only the smoothing slack (< gamma per
				// side), never the underlying span.
				if math.Abs(v1-v2) > 2*p {
					t.Fatalf("%s permutation gap beyond smoothing slack: %g vs %g (p=%g)", name, v1, v2, p)
				}
				continue
			}
			if math.Abs(v1-v2) > tol*(1+math.Abs(v1)) {
				t.Fatalf("%s not permutation invariant: %g vs %g", name, v1, v2)
			}
		}
	}
}

// Translation invariance of the span value and gradient.
func TestKernelTranslationInvariance(t *testing.T) {
	for name, k := range namedKernels() {
		x := []float64{0, 2, 5, 9}
		g1 := make([]float64, 4)
		g2 := make([]float64, 4)
		v1 := k(x, 1.7, g1)
		y := make([]float64, 4)
		for i := range x {
			y[i] = x[i] + 500.25
		}
		v2 := k(y, 1.7, g2)
		if math.Abs(v1-v2) > 1e-7*(1+math.Abs(v1)) {
			t.Errorf("%s value not translation invariant: %g vs %g", name, v1, v2)
		}
		for i := range g1 {
			if math.Abs(g1[i]-g2[i]) > 1e-7 {
				t.Errorf("%s grad[%d] not translation invariant", name, i)
			}
		}
	}
}

// Fig. 1(a)'s claim: the WA model is non-convex even on a 3-pin net with the
// outer pins fixed at 0 and 100. We probe convexity of f(x) = WA({0,x,100})
// and require at least one violated midpoint inequality.
func TestWANonConvexOn3PinNet(t *testing.T) {
	gamma := 10.0
	f := func(x float64) float64 { return NetWA([]float64{0, x, 100}, gamma, nil) }
	violated := false
	for a := 0.0; a <= 98; a += 0.5 {
		for b := a + 1; b <= 100; b += 0.5 {
			mid := (a + b) / 2
			if f(mid) > (f(a)+f(b))/2+1e-9 {
				violated = true
			}
		}
	}
	if !violated {
		t.Error("expected to find a convexity violation in WA on a 3-pin net")
	}
	// The Moreau envelope on the same family must be convex everywhere.
	g := func(x float64) float64 { return NetMoreau([]float64{0, x, 100}, gamma, nil) }
	for a := 0.0; a <= 98; a += 0.5 {
		for b := a + 1; b <= 100; b += 0.5 {
			mid := (a + b) / 2
			if g(mid) > (g(a)+g(b))/2+1e-9 {
				t.Fatalf("ME convexity violated at a=%g b=%g", a, b)
			}
		}
	}
}

// --- whole-design model tests ---

// buildModelTestDesign: three movable cells with off-center pins, one fixed
// pad, two nets (one weighted 2.0).
func buildModelTestDesign(t testing.TB) *netlist.Design {
	t.Helper()
	b := netlist.NewBuilder("wl-test")
	b.SetRegion(geom.Rect{XL: 0, YL: 0, XH: 200, YH: 200})
	c0 := b.AddCell("c0", netlist.Movable, 4, 2, 10, 10)
	c1 := b.AddCell("c1", netlist.Movable, 4, 2, 50, 70)
	c2 := b.AddCell("c2", netlist.Movable, 4, 2, 120, 40)
	pad := b.AddCell("pad", netlist.Terminal, 0, 0, 0, 200)
	n0 := b.AddNet("n0", 1)
	b.AddPin(n0, c0, 2, 1)
	b.AddPin(n0, c1, 0, 0)
	b.AddPin(n0, c2, 4, 2)
	n1 := b.AddNet("n1", 2) // weighted net
	b.AddPin(n1, c1, 1, 1)
	b.AddPin(n1, pad, 0, 0)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTotalHPWLHandComputed(t *testing.T) {
	d := buildModelTestDesign(t)
	// n0 pins: (12,11), (50,70), (124,42) -> span (112) + (59) = 171.
	// n1 pins: (51,71), (0,200) -> (51 + 129) * weight 2 = 360.
	want := 171.0 + 360.0
	if got := TotalHPWL(d); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalHPWL = %g, want %g", got, want)
	}
}

// A NaN coordinate on a pin other than its net's first makes the exact HPWL
// NaN instead of a finite total that skipped the pin.
func TestHPWLNaNCoordinate(t *testing.T) {
	for _, axis := range []string{"x", "y"} {
		d := buildModelTestDesign(t)
		lane := d.X
		if axis == "y" {
			lane = d.Y
		}
		lane[2] = math.NaN() // c2: the last pin of n0
		if got := TotalHPWL(d); !math.IsNaN(got) {
			t.Errorf("TotalHPWL with NaN %s on c2 = %g, want NaN", axis, got)
		}
	}
	if got := NetHPWL([]float64{12, math.NaN(), 124}, 0, nil); !math.IsNaN(got) {
		t.Errorf("NetHPWL with a NaN coordinate = %g, want NaN", got)
	}
}

func TestModelWirelengthGradMatchesFiniteDifference(t *testing.T) {
	d := buildModelTestDesign(t)
	for _, name := range append(AllModelNames(), "HPWL") {
		if name == "HPWL" {
			continue // subgradient, not differentiable
		}
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := 3.0
		gx := make([]float64, d.NumCells())
		gy := make([]float64, d.NumCells())
		m.WirelengthGrad(d, p, gx, gy)
		const h = 1e-5
		for c := 0; c < d.NumCells(); c++ {
			x0 := d.X[c]
			d.X[c] = x0 + h
			fp := m.WirelengthGrad(d, p, nil, nil)
			d.X[c] = x0 - h
			fm := m.WirelengthGrad(d, p, nil, nil)
			d.X[c] = x0
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-gx[c]) > 1e-3*(1+math.Abs(fd)) {
				t.Errorf("%s: dW/dx[%d] = %g, fd %g", name, c, gx[c], fd)
			}
			y0 := d.Y[c]
			d.Y[c] = y0 + h
			fp = m.WirelengthGrad(d, p, nil, nil)
			d.Y[c] = y0 - h
			fm = m.WirelengthGrad(d, p, nil, nil)
			d.Y[c] = y0
			fd = (fp - fm) / (2 * h)
			if math.Abs(fd-gy[c]) > 1e-3*(1+math.Abs(fd)) {
				t.Errorf("%s: dW/dy[%d] = %g, fd %g", name, c, gy[c], fd)
			}
		}
	}
}

func TestModelRespectsNetWeights(t *testing.T) {
	d := buildModelTestDesign(t)
	m := NewWA()
	base := m.WirelengthGrad(d, 1.0, nil, nil)
	d.Nets[1].Weight = 4 // double the weighted net
	boosted := m.WirelengthGrad(d, 1.0, nil, nil)
	if boosted <= base {
		t.Errorf("boosting net weight did not increase objective: %g -> %g", base, boosted)
	}
}

func TestModelValueApproachesTotalHPWL(t *testing.T) {
	d := buildModelTestDesign(t)
	want := TotalHPWL(d)
	for _, name := range AllModelNames() {
		m, _ := ByName(name)
		got := m.WirelengthGrad(d, 0.01, nil, nil)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%s at small param: %g, want ~%g", name, got, want)
		}
	}
}

func TestModelGradZeroedBetweenCalls(t *testing.T) {
	d := buildModelTestDesign(t)
	m := NewMoreau()
	gx := make([]float64, d.NumCells())
	gy := make([]float64, d.NumCells())
	for i := range gx {
		gx[i] = 1e9 // garbage that must be cleared
		gy[i] = -1e9
	}
	m.WirelengthGrad(d, 1.0, gx, gy)
	for i := range gx {
		if math.Abs(gx[i]) > 1e6 || math.Abs(gy[i]) > 1e6 {
			t.Fatalf("gradient buffer not zeroed at %d: %g,%g", i, gx[i], gy[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"LSE", "WA", "BiG_CHKS", "ME", "HPWL"} {
		m, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
	me, _ := ByName("ME")
	if me.ParamKind() != ParamMoreauT {
		t.Error("ME should use the Moreau t schedule")
	}
	wa, _ := ByName("WA")
	if wa.ParamKind() != ParamGamma {
		t.Error("WA should use the gamma schedule")
	}
}

func TestSinglePinNetContributesNothing(t *testing.T) {
	b := netlist.NewBuilder("single")
	b.SetRegion(geom.Rect{XH: 10, YH: 10})
	c := b.AddCell("c", netlist.Movable, 1, 1, 5, 5)
	n := b.AddNet("n", 1)
	b.AddPin(n, c, 0, 0)
	d := b.MustBuild()
	for _, name := range AllModelNames() {
		m, _ := ByName(name)
		gx := make([]float64, 1)
		gy := make([]float64, 1)
		v := m.WirelengthGrad(d, 1.0, gx, gy)
		// ME reports +t per axis on singleton nets; all gradients are zero.
		if gx[0] != 0 || gy[0] != 0 {
			t.Errorf("%s: singleton net produced gradient (%g,%g)", name, gx[0], gy[0])
		}
		if name != "ME" && v != 0 {
			t.Errorf("%s: singleton net value %g, want 0", name, v)
		}
	}
}

func TestCHKSProperties(t *testing.T) {
	// chks(a,b) >= max(a,b), equality gap gamma at a==b.
	if CHKS(3, 3, 2) != 5 {
		t.Errorf("CHKS(3,3,2) = %g, want 5", CHKS(3, 3, 2))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a, b := rng.NormFloat64()*10, rng.NormFloat64()*10
		g := rng.Float64()*5 + 0.01
		v := CHKS(a, b, g)
		if v < math.Max(a, b)-1e-12 {
			t.Fatalf("CHKS below max: chks(%g,%g,%g)=%g", a, b, g, v)
		}
		if v > math.Max(a, b)+g+1e-12 {
			t.Fatalf("CHKS above max+gamma: chks(%g,%g,%g)=%g", a, b, g, v)
		}
		da, db := chksPartials(a, b, g)
		if math.Abs(da+db-1) > 1e-12 || da < 0 || db < 0 {
			t.Fatalf("CHKS partials invalid: %g,%g", da, db)
		}
	}
}

// --- kernel benchmarks used by the runtime-ratio discussion ---

func benchmarkKernel(b *testing.B, k Kernel, degree int) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, degree)
	for i := range x {
		x[i] = rng.Float64() * 1000
	}
	g := make([]float64, degree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k(x, 4.0, g)
	}
}

func BenchmarkKernelWADegree4(b *testing.B)  { benchmarkKernel(b, NewWAKernel(), 4) }
func BenchmarkKernelLSEDegree4(b *testing.B) { benchmarkKernel(b, NewLSEKernel(), 4) }
func BenchmarkKernelBiGDegree4(b *testing.B) { benchmarkKernel(b, NewBiGKernel(), 4) }
func BenchmarkKernelMEDegree4(b *testing.B)  { benchmarkKernel(b, NewMoreauKernel(), 4) }
func BenchmarkKernelWADegree32(b *testing.B) { benchmarkKernel(b, NewWAKernel(), 32) }
func BenchmarkKernelMEDegree32(b *testing.B) { benchmarkKernel(b, NewMoreauKernel(), 32) }

// BiG_WA: the alternative bivariate fold. Same invariants as BiG_CHKS plus
// the under-approximation direction of WA.
func TestBiGWAKernel(t *testing.T) {
	k := NewBiGWAKernel()
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(8)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 30
		}
		p := 0.5 + rng.Float64()*5
		g := make([]float64, n)
		v := k(x, p, g)
		// Converges to HPWL.
		if p < 1 {
			w := NetHPWL(x, 0, nil)
			if math.Abs(v-w) > 6*p {
				t.Fatalf("BiG_WA far from HPWL: %g vs %g (p=%g)", v, w, p)
			}
		}
		// Gradient sums to zero.
		s, scale := 0.0, 0.0
		for _, gv := range g {
			s += gv
			scale += math.Abs(gv)
		}
		if math.Abs(s) > 1e-8*(1+scale) {
			t.Fatalf("BiG_WA grad sum = %g", s)
		}
		// Finite differences.
		const h = 1e-5
		for i := range x {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[i] += h
			xm[i] -= h
			fd := (k(xp, p, nil) - k(xm, p, nil)) / (2 * h)
			if math.Abs(fd-g[i]) > 2e-4*(1+math.Abs(fd)) {
				t.Fatalf("BiG_WA grad[%d] = %g, fd %g", i, g[i], fd)
			}
		}
	}
	// ByName lookup.
	m, err := ByName("BiG_WA")
	if err != nil || m.Name() != "BiG_WA" {
		t.Errorf("ByName(BiG_WA): %v, %v", m, err)
	}
}

// The two BiG variants should agree closely at small smoothing (the paper
// reports roughly equal quality for BiG_WA and BiG_CHKS).
func TestBiGVariantsAgreeAtSmallGamma(t *testing.T) {
	chks := NewBiGKernel()
	wa := NewBiGWAKernel()
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(6)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		a := chks(x, 0.05, nil)
		b := wa(x, 0.05, nil)
		if math.Abs(a-b) > 1 {
			t.Fatalf("BiG variants diverge: %g vs %g", a, b)
		}
	}
}
