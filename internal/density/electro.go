package density

import (
	"math"

	"repro/internal/fft"
	"repro/internal/obs"
)

// Electro is the spectral Poisson solver of the ePlace electrostatic system.
// Given the grid's charge density rho (utilization per bin) it solves
//
//	laplacian(psi) = -rho   with Neumann boundary conditions,
//
// by expanding rho in a 2-D cosine basis (DCT), dividing by w_u^2 + w_v^2,
// and synthesizing the potential (IDCT) and field components (shifted sine
// synthesis along the derivative axis). The zero-frequency mode is dropped,
// which is equivalent to solving with the mean charge removed — physically,
// the neutralizing background charge of ePlace.
//
// The coefficient grid is kept column-major (coeffT, one contiguous column
// per x index) so each synthesis starts directly on contiguous columns, and
// the 1/(w_u^2+w_v^2) scaling (and its w_u/w_v numerators) lives in
// precomputed column-major lanes that the fused fft.IDCTScale/IDXSTScale
// entry points consume during the spectrum-packing pass — no separate
// whole-grid scaling loop and no per-Solve divisions. A full Solve performs
// four tiled transposes (one forward, one per synthesis back to row-major)
// instead of the eight of a row-major pipeline.
//
// A Solve runs on the caller's goroutine and reuses the solver's buffers
// and FFT plans, so it is allocation-free in steady state and not safe for
// concurrent use; create one Electro per placement run.
type Electro struct {
	g *Grid

	// Obs, when non-nil, receives sub-spans for each stage of Solve
	// (forward DCT, then one synthesis per output). Nil costs one pointer
	// check per Solve.
	Obs *obs.Observer

	// planX/planY transform rows (length nx) and columns (length ny); plans
	// carry mutable FFT packing scratch.
	planX, planY *fft.CosPlan

	// wu, wv are the spatial frequencies pi*u/W and pi*v/H.
	wu, wv []float64

	// Rho is the input utilization per bin (filled by SolveFromGrid).
	Rho []float64
	// Psi is the potential, Ex/Ey the field components, all per bin.
	Psi, Ex, Ey []float64

	// coeffT holds the 2-D DCT of Rho after Solve, column-major (nx
	// columns of ny, index u*ny+v).
	coeffT []float64
	// tbuf is the column-major intermediate of each synthesis.
	tbuf []float64

	// recipT/scaleXT/scaleYT are the precomputed column-major synthesis
	// scale lanes: 1/(wu^2+wv^2), wu/(wu^2+wv^2), wv/(wu^2+wv^2), with the
	// DC entry zeroed.
	recipT, scaleXT, scaleYT []float64
}

// NewElectro builds a solver bound to grid g.
func NewElectro(g *Grid) *Electro {
	e := &Electro{
		g:       g,
		planX:   fft.NewCosPlan(g.Nx),
		planY:   fft.NewCosPlan(g.Ny),
		wu:      make([]float64, g.Nx),
		wv:      make([]float64, g.Ny),
		Rho:     make([]float64, g.Nx*g.Ny),
		Psi:     make([]float64, g.Nx*g.Ny),
		Ex:      make([]float64, g.Nx*g.Ny),
		Ey:      make([]float64, g.Nx*g.Ny),
		coeffT:  make([]float64, g.Nx*g.Ny),
		tbuf:    make([]float64, g.Nx*g.Ny),
		recipT:  make([]float64, g.Nx*g.Ny),
		scaleXT: make([]float64, g.Nx*g.Ny),
		scaleYT: make([]float64, g.Nx*g.Ny),
	}
	for u := 0; u < g.Nx; u++ {
		e.wu[u] = math.Pi * float64(u) / g.Region.W()
	}
	for v := 0; v < g.Ny; v++ {
		e.wv[v] = math.Pi * float64(v) / g.Region.H()
	}
	for u := 0; u < g.Nx; u++ {
		wu2 := e.wu[u] * e.wu[u]
		for v := 0; v < g.Ny; v++ {
			i := u*g.Ny + v
			if u == 0 && v == 0 {
				continue // DC lanes stay zero
			}
			r := 1 / (wu2 + e.wv[v]*e.wv[v])
			e.recipT[i] = r
			e.scaleXT[i] = e.wu[u] * r
			e.scaleYT[i] = e.wv[v] * r
		}
	}
	return e
}

// transposeTile is the blocking factor of the tiled transpose; 64 float64s
// per tile row keeps both the read and write streams inside L1.
const transposeTile = 64

// transposeInto writes the rows-by-cols row-major matrix src into dst
// transposed (cols rows of rows entries): dst[c*rows+r] = src[r*cols+c].
// Tiling bounds the cache footprint of the strided reads.
func transposeInto(dst, src []float64, rows, cols int) {
	for c0 := 0; c0 < cols; c0 += transposeTile {
		c1 := min(c0+transposeTile, cols)
		for r0 := 0; r0 < rows; r0 += transposeTile {
			r1 := min(r0+transposeTile, rows)
			for c := c0; c < c1; c++ {
				drow := dst[c*rows : (c+1)*rows]
				for r := r0; r < r1; r++ {
					drow[r] = src[r*cols+c]
				}
			}
		}
	}
}

// dct2DForward computes the 2-D DCT-II of Rho into coeffT (column-major).
// Rows transform into tbuf; the transpose makes each column a contiguous
// row of coeffT for the second pass.
func (e *Electro) dct2DForward() {
	nx, ny := e.g.Nx, e.g.Ny
	for iy := 0; iy < ny; iy++ {
		e.planX.DCT2(e.tbuf[iy*nx:(iy+1)*nx], e.Rho[iy*nx:(iy+1)*nx])
	}
	transposeInto(e.coeffT, e.tbuf, ny, nx)
	for ix := 0; ix < nx; ix++ {
		col := e.coeffT[ix*ny : (ix+1)*ny]
		e.planY.DCT2(col, col)
	}
}

// synth2D synthesizes dst from the column-major coefficients coeffT: the
// column pass fuses the elementwise scale lane into the y transform (IDCT,
// or IDXST when ySine), one transpose brings the result row-major, and the
// row pass applies the x transform in place (IDXST when xSine).
func (e *Electro) synth2D(dst, scale []float64, xSine, ySine bool) {
	nx, ny := e.g.Nx, e.g.Ny
	for ix := 0; ix < nx; ix++ {
		out := e.tbuf[ix*ny : (ix+1)*ny]
		src := e.coeffT[ix*ny : (ix+1)*ny]
		sc := scale[ix*ny : (ix+1)*ny]
		if ySine {
			e.planY.IDXSTScale(out, src, sc)
		} else {
			e.planY.IDCTScale(out, src, sc)
		}
	}
	transposeInto(dst, e.tbuf, nx, ny)
	for iy := 0; iy < ny; iy++ {
		row := dst[iy*nx : (iy+1)*nx]
		if xSine {
			e.planX.IDXST(row, row)
		} else {
			e.planX.IDCT(row, row)
		}
	}
}

// SolveFromGrid loads the grid's current total density (movable + fixed),
// converts it to utilization, and solves for potential and field.
func (e *Electro) SolveFromGrid() {
	invBin := 1 / e.g.BinArea()
	for i := range e.Rho {
		e.Rho[i] = (e.g.Density[i] + e.g.FixedDensity[i]) * invBin
	}
	e.Solve()
}

// Solve runs the spectral solve on the current contents of Rho.
func (e *Electro) Solve() {
	sp := e.Obs.StartPhase(obs.PhaseDCT)
	e.dct2DForward()
	sp.End()

	// Potential: A/(wu^2+wv^2), zero DC — the recip lane fused into the
	// column IDCT.
	sp = e.Obs.StartPhase(obs.PhaseSynthPsi)
	e.synth2D(e.Psi, e.recipT, false, false)
	sp.End()

	// Ex = sum B*wu * sin(wu x) cos(wv y): sine along x, wu numerator.
	sp = e.Obs.StartPhase(obs.PhaseSynthEx)
	e.synth2D(e.Ex, e.scaleXT, true, false)
	sp.End()

	// Ey: sine along y, wv numerator.
	sp = e.Obs.StartPhase(obs.PhaseSynthEy)
	e.synth2D(e.Ey, e.scaleYT, false, true)
	sp.End()

	if h := SolveHook; h != nil {
		h(e)
	}
}

// Energy returns the total electrostatic energy sum_b q_b * psi_b over the
// movable charge, the ePlace density penalty D of Eq. (1), summed in bin
// order.
func (e *Electro) Energy() float64 {
	s := 0.0
	for i, q := range e.g.Density {
		s += q * e.Psi[i]
	}
	return s
}

// Grid returns the bound grid.
func (e *Electro) Grid() *Grid { return e.g }
