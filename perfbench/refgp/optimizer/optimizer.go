// Package optimizer provides the first-order methods used by the global
// placer: Nesterov's accelerated gradient with Barzilai-Borwein step-size
// prediction (the ePlace optimizer), plus plain gradient descent with
// momentum and Adam for ablation studies.
//
// Optimizers operate on a flat parameter vector; the placer packs movable
// cell coordinates as [x0..xn-1, y0..yn-1]. The objective is a callback that
// fills the gradient and returns the value. An optional projection callback
// (e.g. clamping to the placement region) runs after every parameter update.
package optimizer

import "math"

// Evaluate computes the objective at pos, writes the gradient into grad
// (same length), and returns the objective value.
type Evaluate func(pos, grad []float64) float64

// Project restricts a parameter vector to the feasible set in place.
type Project func(pos []float64)

// Optimizer advances a parameter vector one iteration at a time.
type Optimizer interface {
	// Step performs one iteration and returns the objective value
	// observed during the step.
	Step(eval Evaluate) float64
	// Pos returns the current (primary) iterate. The slice is owned by
	// the optimizer; callers must copy if they mutate.
	Pos() []float64
}

// StepSizer is implemented by optimizers that can report the step size used
// by their most recent Step; observability layers record it as a convergence
// diagnostic (the Barzilai-Borwein alpha for Nesterov, the fixed learning
// rate for the baselines).
type StepSizer interface {
	LastStepSize() float64
}

// norm2 returns the Euclidean norm of x.
func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Nesterov is the ePlace flavour of Nesterov's accelerated gradient method.
// The step size is predicted from the inverse local Lipschitz estimate
//
//	alpha_k = ||v_k - v_{k-1}|| / ||grad(v_k) - grad(v_{k-1})||,
//
// and the usual two-sequence acceleration
//
//	u_{k+1} = v_k - alpha*grad(v_k)
//	a_{k+1} = (1 + sqrt(4 a_k^2 + 1))/2
//	v_{k+1} = u_{k+1} + (a_k - 1)/a_{k+1} * (u_{k+1} - u_k)
//
// is applied. An optional projection keeps iterates feasible.
type Nesterov struct {
	u, v, prevV []float64
	g, prevG    []float64
	uT, vT, gT  []float64 // backtracking trial buffers
	a           float64
	alpha0      float64 // step for the very first iteration
	AlphaMax    float64 // upper clamp on the predicted step
	// MaxBacktrack bounds the line-search re-evaluations per step
	// (ePlace's predict-and-check; 2 is the DREAMPlace default).
	MaxBacktrack int
	project      Project
	haveLastStep bool
	lastAlpha    float64
	evalCount    int
}

// NewNesterov creates the optimizer starting at x0 with initial step size
// alpha0 and an optional projection (nil for unconstrained).
func NewNesterov(x0 []float64, alpha0 float64, project Project) *Nesterov {
	n := len(x0)
	o := &Nesterov{
		u:            append([]float64(nil), x0...),
		v:            append([]float64(nil), x0...),
		prevV:        make([]float64, n),
		g:            make([]float64, n),
		prevG:        make([]float64, n),
		uT:           make([]float64, n),
		vT:           make([]float64, n),
		gT:           make([]float64, n),
		a:            1,
		alpha0:       alpha0,
		AlphaMax:     math.Inf(1),
		MaxBacktrack: 2,
		project:      project,
	}
	return o
}

// Pos returns the major iterate u.
func (o *Nesterov) Pos() []float64 { return o.u }

// LastStepSize returns the step size used by the most recent Step.
func (o *Nesterov) LastStepSize() float64 { return o.lastAlpha }

// EvalCount returns the total number of objective evaluations so far
// (including backtracking trials).
func (o *Nesterov) EvalCount() int { return o.evalCount }

// bbStep returns the Barzilai-Borwein inverse-Lipschitz estimate
// ||v1-v0|| / ||g1-g0||, or fallback when the denominator vanishes.
func bbStep(v1, v0, g1, g0 []float64, fallback float64) float64 {
	var dv, dg float64
	for i := range v1 {
		d := v1[i] - v0[i]
		dv += d * d
		e := g1[i] - g0[i]
		dg += e * e
	}
	if dg <= 0 {
		return fallback
	}
	return math.Sqrt(dv / dg)
}

// Step performs one accelerated gradient iteration with predict-and-check
// backtracking on the step size.
func (o *Nesterov) Step(eval Evaluate) float64 {
	val := eval(o.v, o.g)
	o.evalCount++

	alpha := o.alpha0
	if o.haveLastStep {
		alpha = bbStep(o.v, o.prevV, o.g, o.prevG, o.lastAlpha)
	}
	if alpha > o.AlphaMax {
		alpha = o.AlphaMax
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		alpha = o.alpha0
	}

	aNext := (1 + math.Sqrt(4*o.a*o.a+1)) / 2
	coef := (o.a - 1) / aNext

	trial := func(step float64) {
		for i := range o.u {
			uNext := o.v[i] - step*o.g[i]
			o.vT[i] = uNext + coef*(uNext-o.u[i])
			o.uT[i] = uNext
		}
		if o.project != nil {
			o.project(o.uT)
			o.project(o.vT)
		}
	}

	trial(alpha)
	// Predict-and-check: the trial step is acceptable when the Lipschitz
	// estimate measured *across the trial move* does not shrink below the
	// step we used (ePlace uses a 0.95 safety margin).
	for bt := 0; bt < o.MaxBacktrack; bt++ {
		eval(o.vT, o.gT)
		o.evalCount++
		alphaHat := bbStep(o.vT, o.v, o.gT, o.g, alpha)
		if alphaHat >= 0.95*alpha {
			break
		}
		alpha = alphaHat
		trial(alpha)
	}
	o.lastAlpha = alpha

	copy(o.prevV, o.v)
	copy(o.prevG, o.g)
	o.haveLastStep = true
	copy(o.u, o.uT)
	copy(o.v, o.vT)
	o.a = aNext
	return val
}

// Momentum is gradient descent with classical momentum, the simplest
// baseline optimizer.
type Momentum struct {
	x, vel, g []float64
	LR        float64
	Beta      float64
	project   Project
}

// NewMomentum creates a momentum optimizer starting at x0.
func NewMomentum(x0 []float64, lr, beta float64, project Project) *Momentum {
	return &Momentum{
		x:       append([]float64(nil), x0...),
		vel:     make([]float64, len(x0)),
		g:       make([]float64, len(x0)),
		LR:      lr,
		Beta:    beta,
		project: project,
	}
}

// Pos returns the current iterate.
func (o *Momentum) Pos() []float64 { return o.x }

// LastStepSize returns the (fixed) learning rate.
func (o *Momentum) LastStepSize() float64 { return o.LR }

// Step performs one momentum update.
func (o *Momentum) Step(eval Evaluate) float64 {
	val := eval(o.x, o.g)
	for i := range o.x {
		o.vel[i] = o.Beta*o.vel[i] - o.LR*o.g[i]
		o.x[i] += o.vel[i]
	}
	if o.project != nil {
		o.project(o.x)
	}
	return val
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	x, g, m, v2 []float64
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	t           int
	project     Project
}

// NewAdam creates an Adam optimizer starting at x0 with standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(x0 []float64, lr float64, project Project) *Adam {
	return &Adam{
		x:       append([]float64(nil), x0...),
		g:       make([]float64, len(x0)),
		m:       make([]float64, len(x0)),
		v2:      make([]float64, len(x0)),
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Eps:     1e-8,
		project: project,
	}
}

// Pos returns the current iterate.
func (o *Adam) Pos() []float64 { return o.x }

// LastStepSize returns the (fixed) base learning rate.
func (o *Adam) LastStepSize() float64 { return o.LR }

// Step performs one Adam update.
func (o *Adam) Step(eval Evaluate) float64 {
	val := eval(o.x, o.g)
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i := range o.x {
		o.m[i] = o.Beta1*o.m[i] + (1-o.Beta1)*o.g[i]
		o.v2[i] = o.Beta2*o.v2[i] + (1-o.Beta2)*o.g[i]*o.g[i]
		mh := o.m[i] / bc1
		vh := o.v2[i] / bc2
		o.x[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
	}
	if o.project != nil {
		o.project(o.x)
	}
	return val
}

// GradNorm evaluates the objective once at the optimizer's current position
// and returns the gradient norm; a convergence diagnostic.
func GradNorm(o Optimizer, eval Evaluate) float64 {
	g := make([]float64, len(o.Pos()))
	eval(o.Pos(), g)
	return norm2(g)
}
