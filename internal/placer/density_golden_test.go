package placer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/wirelength"
)

// TestDensityHalfGolden pins the density half of one evaluation bit for bit:
// the stamped movable and fixed density maps, the overflow, the energy and
// the field gathered at every entry. The point is unprojected, so cells and
// a macro hang past the region edge, and it holds the cases the stamp and
// gather must agree on: a macro whose footprint edges sit exactly on bin
// boundaries, a cell centred on a bin corner, and entries with a NaN
// coordinate, which stamp nothing and gather a zero force. The engine
// evaluates its initial point first, so anything the stamp keeps from one
// point to the next must be overwritten by the second.
func TestDensityHalfGolden(t *testing.T) {
	const want = "force=4d463a7a619f36bb3d161a19a317c0df550fa9ad5268ce926e50420161f4df1b density=5c468799bc5e72ebf248ca590c8a094c475a1c0c83a5fa5e03bb1009d6168b4d fixed=cee90fac6e40451ac9f6d24b0514a5bdfd1f52a960df0af70d1c628120134baa overflow=0x3fb3cc1c3815c295 energy=0x409230c41219c9a2"

	d := testDesign(t, 400, 2)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 32, 32
	en, pos := coldEngine(t, d, cfg)
	en.density(pos)

	nm := len(en.mov)
	n := nm + en.numFillers
	r := d.Region
	g := en.grid
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		pos[i] = r.XL - 0.1*r.W() + rng.Float64()*1.2*r.W()
		pos[n+i] = r.YL - 0.1*r.H() + rng.Float64()*1.2*r.H()
	}
	var macros []int
	for i, c := range en.mov {
		if d.Cells[c].Kind == netlist.MovableMacro {
			macros = append(macros, i)
		}
	}
	if len(macros) != 2 {
		t.Fatalf("design has %d movable macros, want 2", len(macros))
	}
	// The first macro hangs past the left and top edges.
	m := macros[0]
	pos[m], pos[n+m] = r.XL+en.halfW[m]/2, r.YH
	// The second macro's footprint starts exactly on bin boundaries.
	m = macros[1]
	pos[m] = centreOnBoundary(t, r.XL, g.BinW, g.Nx, en.halfW[m])
	pos[n+m] = centreOnBoundary(t, r.YL, g.BinH, g.Ny, en.halfH[m])
	// A cell centred on a bin corner, a cell with a NaN x and a filler with
	// a NaN y.
	pos[5], pos[n+5] = r.XL+16*g.BinW, r.YL+16*g.BinH
	nanCell, nanFiller := 9, n-1
	if nanFiller < nm || d.Cells[en.mov[nanCell]].Kind == netlist.MovableMacro {
		t.Fatalf("entries %d and %d are not a standard cell and a filler", nanCell, nanFiller)
	}
	pos[nanCell] = math.NaN()
	pos[n+nanFiller] = math.NaN()

	en.density(pos)
	for _, i := range []int{nanCell, nanFiller} {
		if en.fx[i] != 0 || en.fy[i] != 0 {
			t.Errorf("entry %d with a NaN coordinate gathered force (%v, %v), want zero", i, en.fx[i], en.fy[i])
		}
	}
	for b, v := range g.Density {
		if math.IsNaN(v) {
			t.Fatalf("density[%d] is NaN", b)
		}
	}
	got := fmt.Sprintf("force=%s density=%s fixed=%s overflow=%#x energy=%#x",
		bitsDigest(en.fx, en.fy), bitsDigest(g.Density), bitsDigest(g.FixedDensity),
		math.Float64bits(en.denOverflow), math.Float64bits(en.denEnergy))
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// centreOnBoundary returns a centre whose footprint of the given
// half-extent starts exactly on a bin boundary (c-half == boundary), the
// first found from the fourth boundary of the axis on.
func centreOnBoundary(t *testing.T, origin, bin float64, bins int, half float64) float64 {
	t.Helper()
	for b := 3; b < bins; b++ {
		edge := origin + float64(b)*bin
		c := edge + half
		for k := 0; k < 4; k++ {
			c = math.Nextafter(c, math.Inf(-1))
		}
		for k := 0; k < 9; k++ {
			if c-half == edge {
				return c
			}
			c = math.Nextafter(c, math.Inf(1))
		}
	}
	t.Fatalf("no centre puts a footprint of half-extent %v on a bin boundary", half)
	return 0
}
