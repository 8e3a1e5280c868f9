package density

import (
	"math"

	"repro/perfbench/refgp/fft"
	"repro/perfbench/refgp/obs"
	"repro/perfbench/refgp/parallel"
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
// five tiled transposes (two forward, one per synthesis back to row-major)
// instead of the eight of a row-major pipeline.
//
// The 2-D transforms run on a fixed worker pool (NewElectroWorkers): row
// transforms are partitioned across workers, and column transforms are
// contiguous in coeffT. Every output element is computed by exactly one
// worker with the same per-vector arithmetic as the serial path, so results
// are identical for any worker count. The per-worker CosPlans share their
// twiddle/quarter-wave tables read-only through the fft plan cache but keep
// private packing scratch. All loop bodies handed to the worker pool are
// prebuilt at construction (parameters pass through struct fields), so a
// Solve is allocation-free in steady state — and, for the same reason, not
// safe for concurrent use; create one Electro per placement run.
type Electro struct {
	g       *Grid
	workers int

	// Obs, when non-nil, receives sub-spans for each stage of Solve
	// (forward DCT, then one synthesis per output). Nil costs one pointer
	// check per Solve.
	Obs *obs.Observer

	// planXs/planYs hold one CosPlan per worker and axis; plans carry
	// mutable FFT scratch, so they are never shared between workers.
	planXs, planYs []*fft.CosPlan

	// wu, wv are the spatial frequencies pi*u/W and pi*v/H.
	wu, wv []float64

	// Rho is the input utilization per bin (filled by SolveFromGrid).
	Rho []float64
	// Coeff holds the 2-D DCT of Rho after Solve (row-major, v*nx+u).
	Coeff []float64
	// Psi is the potential, Ex/Ey the field components, all per bin.
	Psi, Ex, Ey []float64

	// coeffT is the canonical column-major coefficient store (nx columns of
	// ny, index u*ny+v); Coeff is its row-major transpose kept for external
	// consumers.
	coeffT []float64
	// tbuf is the column-major intermediate of each synthesis.
	tbuf []float64

	// recipT/scaleXT/scaleYT are the precomputed column-major synthesis
	// scale lanes: 1/(wu^2+wv^2), wu/(wu^2+wv^2), wv/(wu^2+wv^2), with the
	// DC entry zeroed.
	recipT, scaleXT, scaleYT []float64

	// Prebuilt worker-pool loop bodies and their per-call parameter fields.
	// Closures passed to parallel.For escape to the heap when built at the
	// call site, so Solve builds them once here and passes parameters
	// through the fields below instead (Solve is single-caller, so plain
	// fields are safe).
	tDst, tSrc   []float64
	tRows, tCols int
	fnTranspose  func(w, lo, hi int)

	fnFwdRows func(w, lo, hi int)
	fnFwdCols func(w, lo, hi int)

	csScale    []float64
	csSine     bool
	fnColSynth func(w, lo, hi int)

	rsDst      []float64
	rsSine     bool
	fnRowSynth func(w, lo, hi int)

	fnFill   func(w, lo, hi int)
	fnEnergy func(w, lo, hi int) float64
}

// NewElectro builds a serial solver bound to grid g.
func NewElectro(g *Grid) *Electro { return NewElectroWorkers(g, 1) }

// NewElectroWorkers builds a solver bound to grid g that runs its transforms
// and scaling loops on a pool of the given size. workers <= 1 is the serial
// solver.
func NewElectroWorkers(g *Grid, workers int) *Electro {
	if workers < 1 {
		workers = 1
	}
	e := &Electro{
		g:       g,
		workers: workers,
		wu:      make([]float64, g.Nx),
		wv:      make([]float64, g.Ny),
		Rho:     make([]float64, g.Nx*g.Ny),
		Coeff:   make([]float64, g.Nx*g.Ny),
		Psi:     make([]float64, g.Nx*g.Ny),
		Ex:      make([]float64, g.Nx*g.Ny),
		Ey:      make([]float64, g.Nx*g.Ny),
		coeffT:  make([]float64, g.Nx*g.Ny),
		tbuf:    make([]float64, g.Nx*g.Ny),
		recipT:  make([]float64, g.Nx*g.Ny),
		scaleXT: make([]float64, g.Nx*g.Ny),
		scaleYT: make([]float64, g.Nx*g.Ny),
	}
	for w := 0; w < workers; w++ {
		e.planXs = append(e.planXs, fft.NewCosPlan(g.Nx))
		e.planYs = append(e.planYs, fft.NewCosPlan(g.Ny))
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
	e.buildLoopBodies()
	return e
}

// buildLoopBodies constructs the closures handed to parallel.For once, so
// steady-state Solve/Energy calls never allocate.
func (e *Electro) buildLoopBodies() {
	nx, ny := e.g.Nx, e.g.Ny
	e.fnTranspose = func(_, lo, hi int) {
		dst, src, rows, cols := e.tDst, e.tSrc, e.tRows, e.tCols
		for c0 := lo; c0 < hi; c0 += transposeTile {
			c1 := c0 + transposeTile
			if c1 > hi {
				c1 = hi
			}
			for r0 := 0; r0 < rows; r0 += transposeTile {
				r1 := r0 + transposeTile
				if r1 > rows {
					r1 = rows
				}
				for c := c0; c < c1; c++ {
					drow := dst[c*rows : (c+1)*rows]
					for r := r0; r < r1; r++ {
						drow[r] = src[r*cols+c]
					}
				}
			}
		}
	}
	e.fnFwdRows = func(w, lo, hi int) {
		plan := e.planXs[w]
		for iy := lo; iy < hi; iy++ {
			plan.DCT2(e.tbuf[iy*nx:(iy+1)*nx], e.Rho[iy*nx:(iy+1)*nx])
		}
	}
	e.fnFwdCols = func(w, lo, hi int) {
		plan := e.planYs[w]
		for ix := lo; ix < hi; ix++ {
			col := e.coeffT[ix*ny : (ix+1)*ny]
			plan.DCT2(col, col)
		}
	}
	e.fnColSynth = func(w, lo, hi int) {
		plan := e.planYs[w]
		scale, sine := e.csScale, e.csSine
		for ix := lo; ix < hi; ix++ {
			dst := e.tbuf[ix*ny : (ix+1)*ny]
			src := e.coeffT[ix*ny : (ix+1)*ny]
			sc := scale[ix*ny : (ix+1)*ny]
			if sine {
				plan.IDXSTScale(dst, src, sc)
			} else {
				plan.IDCTScale(dst, src, sc)
			}
		}
	}
	e.fnRowSynth = func(w, lo, hi int) {
		plan := e.planXs[w]
		dst, sine := e.rsDst, e.rsSine
		for iy := lo; iy < hi; iy++ {
			row := dst[iy*nx : (iy+1)*nx]
			if sine {
				plan.IDXST(row, row)
			} else {
				plan.IDCT(row, row)
			}
		}
	}
	invBin := 1 / e.g.BinArea()
	e.fnFill = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.Rho[i] = (e.g.Density[i] + e.g.FixedDensity[i]) * invBin
		}
	}
	e.fnEnergy = func(_, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += e.g.Density[i] * e.Psi[i]
		}
		return s
	}
}

// Workers returns the solver's worker-pool size.
func (e *Electro) Workers() int { return e.workers }

// transposeTile is the blocking factor of the tiled transpose; 64 float64s
// per tile row keeps both the read and write streams inside L1.
const transposeTile = 64

// transposeInto writes the rows-by-cols row-major matrix src into dst
// transposed (cols rows of rows entries): dst[c*rows+r] = src[r*cols+c].
// Workers partition the destination rows (source columns), so writes are
// disjoint; tiling bounds the cache footprint of the strided reads.
func (e *Electro) transposeInto(dst, src []float64, rows, cols int) {
	e.tDst, e.tSrc, e.tRows, e.tCols = dst, src, rows, cols
	parallel.For(e.workers, cols, e.fnTranspose)
}

// dct2DForward computes the 2-D DCT-II of Rho into coeffT (column-major) and
// mirrors it into Coeff (row-major). Rows transform in parallel into tbuf;
// the transpose makes each column a contiguous row of coeffT for the second
// pass.
func (e *Electro) dct2DForward() {
	nx, ny := e.g.Nx, e.g.Ny
	parallel.For(e.workers, ny, e.fnFwdRows)
	e.transposeInto(e.coeffT, e.tbuf, ny, nx)
	parallel.For(e.workers, nx, e.fnFwdCols)
	e.transposeInto(e.Coeff, e.coeffT, nx, ny)
}

// synth2D synthesizes dst from the column-major coefficients coeffT: the
// column pass fuses the elementwise scale lane into the y transform (IDCT,
// or IDXST when ySine), one transpose brings the result row-major, and the
// row pass applies the x transform in place (IDXST when xSine).
func (e *Electro) synth2D(dst, scale []float64, xSine, ySine bool) {
	nx, ny := e.g.Nx, e.g.Ny
	e.csScale, e.csSine = scale, ySine
	parallel.For(e.workers, nx, e.fnColSynth)
	e.transposeInto(dst, e.tbuf, nx, ny)
	e.rsDst, e.rsSine = dst, xSine
	parallel.For(e.workers, ny, e.fnRowSynth)
}

// SolveFromGrid loads the grid's current total density (movable + fixed),
// converts it to utilization, and solves for potential and field.
func (e *Electro) SolveFromGrid() {
	parallel.For(e.workers, len(e.Rho), e.fnFill)
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
// movable charge, the ePlace density penalty D of Eq. (1). Partial sums are
// reduced in worker order, so the value is deterministic for a fixed worker
// count.
func (e *Electro) Energy() float64 {
	return parallel.SumOrdered(e.workers, len(e.g.Density), e.fnEnergy)
}

// Grid returns the bound grid.
func (e *Electro) Grid() *Grid { return e.g }
