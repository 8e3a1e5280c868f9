package wirelength

import "math"

// CHKS is the Chen-Harker-Kanzow-Smale bivariate smoothing function
//
//	chks(a, b) = (a + b + sqrt((a-b)^2 + 4*gamma^2)) / 2,
//
// a smooth over-approximation of max(a, b) with error at most gamma
// (attained at a == b). The BiG model (Sun & Chang, DAC 2019) folds an
// n-ary smooth maximum out of this bivariate function.
func CHKS(a, b, gamma float64) float64 {
	d := a - b
	return (a + b + math.Sqrt(d*d+4*gamma*gamma)) / 2
}

// chksPartials returns d(chks)/da and d(chks)/db. The partials are positive
// and sum to one, which is what gives the folded BiG gradient the same
// sum-to-one property as the WA smooth maximum (Theorem 5).
func chksPartials(a, b, gamma float64) (da, db float64) {
	d := a - b
	s := math.Sqrt(d*d + 4*gamma*gamma)
	da = (1 + d/s) / 2
	db = (1 - d/s) / 2
	return
}

// bigScratch carries the fold state reused across nets by the model.
type bigScratch struct {
	fold []float64 // running smooth-max values m_k
	da   []float64 // d(m_k)/d(m_{k-1}) at each fold step
	db   []float64 // d(m_k)/d(x_k) at each fold step
}

func (s *bigScratch) ensure(n int) {
	if cap(s.fold) < n {
		s.fold = make([]float64, n)
		s.da = make([]float64, n)
		s.db = make([]float64, n)
	}
	s.fold = s.fold[:n]
	s.da = s.da[:n]
	s.db = s.db[:n]
}

// smoothMaxFold computes the folded smooth maximum m_n of x and, when grad
// is non-nil, adds sign * d(m_n)/dx_i to grad[i] via the reverse chain rule.
func (s *bigScratch) smoothMaxFold(x []float64, gamma float64, grad []float64, negate bool, sign float64) float64 {
	n := len(x)
	s.ensure(n)
	get := func(i int) float64 {
		if negate {
			return -x[i]
		}
		return x[i]
	}
	m := get(0)
	s.fold[0] = m
	s.da[0], s.db[0] = 0, 1
	for k := 1; k < n; k++ {
		v := get(k)
		da, db := chksPartials(m, v, gamma)
		m = CHKS(m, v, gamma)
		s.fold[k] = m
		s.da[k], s.db[k] = da, db
	}
	if grad != nil {
		// Suffix products of da give d(m_n)/dx_k = db_k * prod_{j>k} da_j.
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

// NewBiGKernel returns a BiG(CHKS) kernel with private fold scratch. The
// kernel value is smoothmax(x) + smoothmax(-x), i.e. an over-approximation
// of max(x) - min(x); the gradient is exact for that folded value.
func NewBiGKernel() Kernel {
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
		smax := s.smoothMaxFold(x, gamma, grad, false, 1)
		smin := -s.smoothMaxFold(x, gamma, grad, true, 1)
		return smax - smin
	}
}

// NetBiGCHKS evaluates the BiG(CHKS) kernel with a throwaway scratch;
// convenient for tests and toy studies, allocation-free only via
// NewBiGKernel.
func NetBiGCHKS(x []float64, gamma float64, grad []float64) float64 {
	return NewBiGKernel()(x, gamma, grad)
}

// NewBiGCHKS returns the BiG wirelength model with the CHKS bivariate
// function, the re-implementation the paper compares against.
func NewBiGCHKS() Model {
	return NewKernelModel("BiG_CHKS", ParamGamma, NewBiGKernel())
}
