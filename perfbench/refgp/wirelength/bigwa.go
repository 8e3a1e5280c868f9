package wirelength

import "math"

// bivariateWA is the two-argument weighted-average smooth maximum used by
// the BiG_WA variant (Sun & Chang report BiG_WA and BiG_CHKS perform about
// equally; the paper re-implements the CHKS one, and we provide both):
//
//	f(a, b) = (a*e^{a/g} + b*e^{b/g}) / (e^{a/g} + e^{b/g}),
//
// stabilized by factoring out max(a, b). Unlike CHKS it under-approximates
// the maximum.
func bivariateWA(a, b, gamma float64) float64 {
	m := math.Max(a, b)
	ea := math.Exp((a - m) / gamma)
	eb := math.Exp((b - m) / gamma)
	return (a*ea + b*eb) / (ea + eb)
}

// bivariateWAPartials returns df/da and df/db.
func bivariateWAPartials(a, b, gamma float64) (da, db float64) {
	m := math.Max(a, b)
	ea := math.Exp((a - m) / gamma)
	eb := math.Exp((b - m) / gamma)
	den := ea + eb
	f := (a*ea + b*eb) / den
	da = ea / den * (1 + (a-f)/gamma)
	db = eb / den * (1 + (b-f)/gamma)
	return
}

// NewBiGWAKernel returns the BiG kernel built on the bivariate WA smooth
// maximum instead of CHKS.
func NewBiGWAKernel() Kernel {
	var s bigScratch
	return func(x []float64, gamma float64, grad []float64) float64 {
		checkKernelArgs(x, gamma)
		if grad != nil {
			for i := range grad {
				grad[i] = 0
			}
		}
		if len(x) == 1 {
			return 0
		}
		smax := s.foldWA(x, gamma, grad, false, 1)
		smin := -s.foldWA(x, gamma, grad, true, 1)
		return smax - smin
	}
}

// foldWA mirrors bigScratch.smoothMaxFold with the WA bivariate function.
func (s *bigScratch) foldWA(x []float64, gamma float64, grad []float64, negate bool, sign float64) float64 {
	n := len(x)
	s.ensure(n)
	get := func(i int) float64 {
		if negate {
			return -x[i]
		}
		return x[i]
	}
	m := get(0)
	s.da[0], s.db[0] = 0, 1
	for k := 1; k < n; k++ {
		v := get(k)
		da, db := bivariateWAPartials(m, v, gamma)
		m = bivariateWA(m, v, gamma)
		s.da[k], s.db[k] = da, db
	}
	if grad != nil {
		suffix := 1.0
		for k := n - 1; k >= 0; k-- {
			g := s.db[k] * suffix
			if negate {
				g = -g
			}
			grad[k] += sign * g
			suffix *= s.da[k]
		}
	}
	return m
}

// NewBiGWA returns the BiG wirelength model with the bivariate WA function.
func NewBiGWA() Model {
	return NewKernelModel("BiG_WA", ParamGamma, NewBiGWAKernel())
}
