package wirelength

import "math"

// NewLSEKernel returns the log-sum-exp smooth HPWL kernel (Naylor et al.)
// with private lanes:
//
//	W = gamma*ln(sum exp(x_i/gamma)) + gamma*ln(sum exp(-x_i/gamma)).
//
// This implementation is numerically stabilized by factoring out the extreme
// coordinate from each exponential sum, the same trick DREAMPlace uses, so
// it never overflows regardless of how small gamma is relative to the
// coordinate spread. Gradient: softmax(+) - softmax(-). The value loop keeps
// each pin's two exponentials in the lanes and the gradient loop reads them
// back, so every exponential is evaluated once per call.
func NewLSEKernel() Kernel {
	var s expLanes
	return func(x []float64, gamma float64, grad []float64) float64 {
		checkKernelArgs(x, gamma)
		lo, hi := spanExtremes(x)
		inv := 1 / gamma
		eh, el := s.ensure(len(x))

		var sumHi, sumLo float64
		for i, v := range x {
			eh[i] = math.Exp((v - hi) * inv)
			el[i] = math.Exp((lo - v) * inv)
			sumHi += eh[i]
			sumLo += el[i]
		}
		val := hi + gamma*math.Log(sumHi) + (-lo + gamma*math.Log(sumLo))

		if grad != nil {
			for i := range x {
				grad[i] = eh[i]/sumHi - el[i]/sumLo
			}
		}
		return val
	}
}

// NetLSE evaluates the LSE kernel with throwaway lanes; see NewLSEKernel for
// the allocation-free variant.
func NetLSE(x []float64, gamma float64, grad []float64) float64 {
	return NewLSEKernel()(x, gamma, grad)
}

// NetLSENaive is the textbook LSE kernel without stabilization. It exists
// to reproduce the numerical-overflow failure mode discussed in Section
// II-D(1) of the paper: for spreads of hundreds of units and small gamma the
// raw exponentials overflow float64 and the result becomes +Inf or NaN.
// Never use it inside a placer flow.
func NetLSENaive(x []float64, gamma float64, grad []float64) float64 {
	checkKernelArgs(x, gamma)
	inv := 1 / gamma
	var sumHi, sumLo float64
	for _, v := range x {
		sumHi += math.Exp(v * inv)
		sumLo += math.Exp(-v * inv)
	}
	if grad != nil {
		for i, v := range x {
			grad[i] = math.Exp(v*inv)/sumHi - math.Exp(-v*inv)/sumLo
		}
	}
	return gamma*math.Log(sumHi) + gamma*math.Log(sumLo)
}

// NewLSE returns the LSE wirelength model.
func NewLSE() Model { return NewKernelModel("LSE", ParamGamma, NewLSEKernel()) }
