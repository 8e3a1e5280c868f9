package wirelength

import "math"

// NetLSE is the log-sum-exp smooth HPWL kernel (Naylor et al.):
//
//	W = gamma*ln(sum exp(x_i/gamma)) + gamma*ln(sum exp(-x_i/gamma)).
//
// This implementation is numerically stabilized by factoring out the extreme
// coordinate from each exponential sum, the same trick DREAMPlace uses, so
// it never overflows regardless of how small gamma is relative to the
// coordinate spread. Gradient: softmax(+) - softmax(-).
func NetLSE(x []float64, gamma float64, grad []float64) float64 {
	checkKernelArgs(x, gamma)
	lo, hi := spanExtremes(x)
	inv := 1 / gamma

	var sumHi, sumLo float64
	for _, v := range x {
		sumHi += math.Exp((v - hi) * inv)
		sumLo += math.Exp((lo - v) * inv)
	}
	val := hi + gamma*math.Log(sumHi) + (-lo + gamma*math.Log(sumLo))

	if grad != nil {
		for i, v := range x {
			grad[i] = math.Exp((v-hi)*inv)/sumHi - math.Exp((lo-v)*inv)/sumLo
		}
	}
	return val
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
func NewLSE() Model { return NewKernelModel("LSE", ParamGamma, NetLSE) }
