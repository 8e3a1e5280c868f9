package wirelength

import "math"

// NetWA is the weighted-average smooth HPWL kernel (Hsu, Chang, Balabanov):
//
//	W = sum(x_i*e^{x_i/g})/sum(e^{x_i/g}) - sum(x_i*e^{-x_i/g})/sum(e^{-x_i/g}).
//
// Exponentials are stabilized by shifting by the extreme coordinate, which
// leaves both quotients unchanged. The analytic gradient of the smooth-max
// part is
//
//	d/dx_i = w_i/B * (1 + (x_i - f)/gamma),  w_i = e^{(x_i-hi)/gamma},
//
// with the mirrored expression for the smooth-min part.
func NetWA(x []float64, gamma float64, grad []float64) float64 {
	checkKernelArgs(x, gamma)
	lo, hi := spanExtremes(x)
	inv := 1 / gamma

	var numHi, denHi, numLo, denLo float64
	for _, v := range x {
		wh := math.Exp((v - hi) * inv)
		wl := math.Exp((lo - v) * inv)
		numHi += v * wh
		denHi += wh
		numLo += v * wl
		denLo += wl
	}
	smax := numHi / denHi
	smin := numLo / denLo

	if grad != nil {
		for i, v := range x {
			wh := math.Exp((v - hi) * inv)
			wl := math.Exp((lo - v) * inv)
			dmax := wh / denHi * (1 + (v-smax)*inv)
			dmin := wl / denLo * (1 - (v-smin)*inv)
			grad[i] = dmax - dmin
		}
	}
	return smax - smin
}

// NetWANaive is the WA kernel without exponent shifting, kept for the
// Section II-D(1) overflow study. With coordinate spreads in the hundreds
// and small gamma it produces Inf/Inf = NaN. Never use it in a flow.
func NetWANaive(x []float64, gamma float64, grad []float64) float64 {
	checkKernelArgs(x, gamma)
	inv := 1 / gamma
	var numHi, denHi, numLo, denLo float64
	for _, v := range x {
		wh := math.Exp(v * inv)
		wl := math.Exp(-v * inv)
		numHi += v * wh
		denHi += wh
		numLo += v * wl
		denLo += wl
	}
	smax := numHi / denHi
	smin := numLo / denLo
	if grad != nil {
		for i, v := range x {
			wh := math.Exp(v * inv)
			wl := math.Exp(-v * inv)
			grad[i] = wh/denHi*(1+(v-smax)*inv) - wl/denLo*(1-(v-smin)*inv)
		}
	}
	return smax - smin
}

// NetWASmoothMax returns only the smooth-max half of the WA model and its
// gradient; used by tests of Theorem 5 (smooth-max gradient components sum
// to one).
func NetWASmoothMax(x []float64, gamma float64, grad []float64) float64 {
	checkKernelArgs(x, gamma)
	_, hi := spanExtremes(x)
	inv := 1 / gamma
	var num, den float64
	for _, v := range x {
		w := math.Exp((v - hi) * inv)
		num += v * w
		den += w
	}
	f := num / den
	if grad != nil {
		for i, v := range x {
			w := math.Exp((v - hi) * inv)
			grad[i] = w / den * (1 + (v-f)*inv)
		}
	}
	return f
}

// NewWA returns the weighted-average wirelength model.
func NewWA() Model { return NewKernelModel("WA", ParamGamma, NetWA) }
