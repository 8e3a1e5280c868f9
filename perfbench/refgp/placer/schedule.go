package placer

import (
	"math"

	"repro/perfbench/refgp/checkpoint"
)

// GammaSchedule is the ePlace smoothing schedule for exponential wirelength
// models (LSE/WA/BiG):
//
//	gamma(phi) = gamma0/2 * (binW + binH) * 10^((20*phi - 11)/9),
//
// which spans 10x the base smoothing at full overflow (phi = 1) down to
// 0.1x at phi = 0.1. Higher overflow trades approximation accuracy for a
// smoother, easier objective.
type GammaSchedule struct {
	// Gamma0 is the base multiplier (ePlace uses 4.0).
	Gamma0 float64
	// BinW, BinH are the density bin dimensions.
	BinW, BinH float64
}

// At returns gamma for density overflow phi.
func (s GammaSchedule) At(phi float64) float64 {
	phi = clampUnit(phi)
	return s.Gamma0 / 2 * (s.BinW + s.BinH) * math.Pow(10, (20*phi-11)/9)
}

// TSchedule is the paper's tangent-based update for the Moreau smoothing
// parameter (Eq. 14):
//
//	t(phi) = t0/2 * (binW + binH) * tan(pi/2*phi - delta),
//
// with delta a small positive offset preventing the tangent from blowing up
// at phi = 1. The result is clamped below by TMin to stay strictly positive
// once the overflow gets small (the raw tangent crosses zero at
// phi = 2*delta/pi).
type TSchedule struct {
	// T0 is the base multiplier; the paper reports t0 = 4 works well.
	T0 float64
	// Delta is the overflow offset; the paper uses 1e-4.
	Delta float64
	// BinW, BinH are the density bin dimensions.
	BinW, BinH float64
	// TMin floors the parameter (default: 1e-6 * (binW+binH)).
	TMin float64
}

// At returns t for density overflow phi.
func (s TSchedule) At(phi float64) float64 {
	phi = clampUnit(phi)
	tmin := s.TMin
	if tmin <= 0 {
		tmin = 1e-6 * (s.BinW + s.BinH)
	}
	// Keep the tangent argument strictly inside (-pi/2, pi/2).
	arg := math.Pi/2*phi - s.Delta
	if arg >= math.Pi/2 {
		arg = math.Pi/2 - 1e-9
	}
	t := s.T0 / 2 * (s.BinW + s.BinH) * math.Tan(arg)
	if t < tmin {
		return tmin
	}
	return t
}

// LambdaUpdater implements the density-weight schedule of Eq. 15
// (DREAMPlace 3.0 / elfPlace style):
//
//	lambda_{k+1} = lambda_k + alpha_k,
//	alpha_k = (alphaH - (alphaH - alphaL)/(1 + ln(1 + beta*D_k/D_0))) * alpha_{k-1},
//
// where D_k is the density penalty at iteration k. alpha grows geometrically
// with a rate between alphaL and alphaH: a large residual density keeps the
// rate near alphaH (push spreading harder), a small residual keeps it near
// alphaL.
type LambdaUpdater struct {
	// AlphaL, AlphaH bound the growth rate; defaults (1.01, 1.02).
	AlphaL, AlphaH float64
	// Beta scales the density ratio inside the log; default 2000.
	Beta float64

	lambda float64
	alpha  float64
	d0     float64
	primed bool
}

// NewLambdaUpdater creates the updater with the paper's default parameters.
func NewLambdaUpdater() *LambdaUpdater {
	return &LambdaUpdater{AlphaL: 1.01, AlphaH: 1.02, Beta: 2000}
}

// Prime sets the initial density weight lambda0 and records the initial
// density penalty D_0; alpha_0 = (alphaL - 1) * lambda0 per the paper.
func (u *LambdaUpdater) Prime(lambda0, d0 float64) {
	u.lambda = lambda0
	u.alpha = (u.AlphaL - 1) * lambda0
	if d0 <= 0 {
		d0 = 1
	}
	u.d0 = d0
	u.primed = true
}

// Lambda returns the current density weight.
func (u *LambdaUpdater) Lambda() float64 { return u.lambda }

// State dumps the updater's mutable state for checkpointing.
func (u *LambdaUpdater) State() checkpoint.LambdaState {
	return checkpoint.LambdaState{Lambda: u.lambda, Alpha: u.alpha, D0: u.d0, Primed: u.primed}
}

// RestoreState overwrites the updater's mutable state from a checkpoint.
func (u *LambdaUpdater) RestoreState(s checkpoint.LambdaState) {
	u.lambda, u.alpha, u.d0, u.primed = s.Lambda, s.Alpha, s.D0, s.Primed
}

// Update advances lambda given the density penalty observed this iteration.
func (u *LambdaUpdater) Update(dk float64) float64 {
	if !u.primed {
		panic("placer: LambdaUpdater used before Prime")
	}
	ratio := u.Beta * dk / u.d0
	if ratio < 0 {
		ratio = 0
	}
	rate := u.AlphaH - (u.AlphaH-u.AlphaL)/(1+math.Log(1+ratio))
	u.alpha *= rate
	u.lambda += u.alpha
	return u.lambda
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
