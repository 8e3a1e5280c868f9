// Package quadratic implements the quadratic-placement substrate the paper
// discusses as background (Section I): the Bound2Bound (B2B) net model of
// Kraftwerk2, which approximates HPWL by a reweighted quadratic form, solved
// with a Jacobi-preconditioned conjugate-gradient method. The placer uses it
// as an optional wirelength-aware initial placement; it also serves as the
// classic quadratic baseline family (SimPL/Kraftwerk-style) for studies.
package quadratic

import (
	"fmt"
	"math"
	"sort"
)

// triplet is one (row, col, value) matrix entry before compression.
type triplet struct {
	r, c int32
	v    float64
}

// SymCSR is a symmetric sparse matrix in compressed-sparse-row form; only
// used via multiply, so both halves are stored explicitly.
type SymCSR struct {
	n     int
	start []int32
	col   []int32
	val   []float64
	diag  []float64
}

// Builder accumulates triplets for an n-by-n symmetric matrix.
type Builder struct {
	n    int
	ts   []triplet
	diag []float64
}

// NewBuilder creates a builder for an n-dimensional system.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, diag: make([]float64, n)}
}

// AddDiag adds v to entry (i, i).
func (b *Builder) AddDiag(i int, v float64) {
	b.diag[i] += v
}

// AddSym adds v to entries (i, j) and (j, i), i != j.
func (b *Builder) AddSym(i, j int, v float64) {
	b.ts = append(b.ts, triplet{int32(i), int32(j), v}, triplet{int32(j), int32(i), v})
}

// Build compresses the triplets into CSR, summing duplicates.
func (b *Builder) Build() *SymCSR {
	sort.Slice(b.ts, func(a, c int) bool {
		if b.ts[a].r != b.ts[c].r {
			return b.ts[a].r < b.ts[c].r
		}
		return b.ts[a].c < b.ts[c].c
	})
	m := &SymCSR{
		n:     b.n,
		start: make([]int32, b.n+1),
		diag:  append([]float64(nil), b.diag...),
	}
	for i := 0; i < len(b.ts); {
		t := b.ts[i]
		v := t.v
		j := i + 1
		for j < len(b.ts) && b.ts[j].r == t.r && b.ts[j].c == t.c {
			v += b.ts[j].v
			j++
		}
		m.col = append(m.col, t.c)
		m.val = append(m.val, v)
		m.start[t.r+1]++
		i = j
	}
	for r := 0; r < b.n; r++ {
		m.start[r+1] += m.start[r]
	}
	return m
}

// N returns the dimension.
func (m *SymCSR) N() int { return m.n }

// MulVec computes y = (D + A) x where D is the diagonal part.
func (m *SymCSR) MulVec(y, x []float64) {
	for r := 0; r < m.n; r++ {
		s := m.diag[r] * x[r]
		for k := m.start[r]; k < m.start[r+1]; k++ {
			s += m.val[k] * x[m.col[k]]
		}
		y[r] = s
	}
}

// CGOptions tunes the conjugate-gradient solve.
type CGOptions struct {
	// MaxIters caps iterations (default 500).
	MaxIters int
	// Tol is the relative residual target (default 1e-6).
	Tol float64
}

// SolveCG solves (D+A) x = rhs with Jacobi preconditioning, starting from
// the provided x (a warm start). It returns the iteration count and final
// relative residual.
func (m *SymCSR) SolveCG(x, rhs []float64, opt CGOptions) (int, float64, error) {
	if len(x) != m.n || len(rhs) != m.n {
		return 0, 0, fmt.Errorf("quadratic: dimension mismatch")
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 500
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-6
	}
	inv := make([]float64, m.n)
	for i, d := range m.diag {
		if d <= 0 {
			return 0, 0, fmt.Errorf("quadratic: non-positive diagonal at %d (%g); matrix not SPD", i, d)
		}
		inv[i] = 1 / d
	}
	r := make([]float64, m.n)
	z := make([]float64, m.n)
	p := make([]float64, m.n)
	ap := make([]float64, m.n)

	m.MulVec(r, x)
	rhsNorm := 0.0
	for i := range r {
		r[i] = rhs[i] - r[i]
		rhsNorm += rhs[i] * rhs[i]
	}
	rhsNorm = math.Sqrt(rhsNorm)
	if rhsNorm == 0 {
		rhsNorm = 1
	}
	rz := 0.0
	for i := range r {
		z[i] = inv[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	var relRes float64
	for k := 0; k < opt.MaxIters; k++ {
		rNorm := 0.0
		for i := range r {
			rNorm += r[i] * r[i]
		}
		relRes = math.Sqrt(rNorm) / rhsNorm
		if relRes < opt.Tol {
			return k, relRes, nil
		}
		m.MulVec(ap, p)
		pap := 0.0
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			return k, relRes, fmt.Errorf("quadratic: matrix not positive definite (pAp=%g)", pap)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rzNew := 0.0
		for i := range r {
			z[i] = inv[i] * r[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return opt.MaxIters, relRes, nil
}
