// Package fft provides the spectral transforms needed by the electrostatic
// placement engine: an iterative radix-2 complex FFT, the DCT-II/DCT-III
// pair used for Neumann-boundary Poisson analysis/synthesis, and the shifted
// sine synthesis (IDXST) used to evaluate the electric field from cosine
// potential coefficients.
//
// All real transforms of length N run through one complex FFT of length N/2:
// the N real inputs are packed into N/2 complex points and the spectrum is
// unpacked with conjugate symmetry, which halves the butterfly work of every
// DCT2/IDCT/IDXST call relative to the classic Makhoul full-length embedding.
// The synthesis transforms also exist in fused *Scale variants that fold an
// elementwise coefficient scaling into the spectrum-packing pass, so callers
// like the Poisson solver never need a separate whole-grid scaling loop.
//
// Twiddle factors, quarter-wave tables, and bit-reversal permutations are
// immutable per length and shared process-wide through a plan cache; every
// Plan/CosPlan instance carries only private scratch, so per-worker plans are
// cheap and safe to use concurrently (one plan per goroutine).
//
// All lengths must be powers of two. Transforms are deterministic and
// allocation-free after plan construction.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// planTables holds the immutable per-length data of a complex FFT: the
// bit-reversal permutation and the twiddle tables. Instances are shared
// read-only between every Plan of the same length via the plan cache.
type planTables struct {
	rev    []int
	cosTab []float64 // cos(2*pi*k/n) for k < n/2
	sinTab []float64 // sin(2*pi*k/n) for k < n/2
}

var planCache sync.Map // int -> *planTables

// tablesFor returns the shared immutable tables for a length-n complex FFT,
// building them on first use.
func tablesFor(n int) *planTables {
	if t, ok := planCache.Load(n); ok {
		return t.(*planTables)
	}
	t := &planTables{
		rev:    make([]int, n),
		cosTab: make([]float64, n/2),
		sinTab: make([]float64, n/2),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		t.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := 0; k < n/2; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		t.cosTab[k] = math.Cos(ang)
		t.sinTab[k] = math.Sin(ang)
	}
	actual, _ := planCache.LoadOrStore(n, t)
	return actual.(*planTables)
}

// Plan caches twiddle factors and the bit-reversal permutation for complex
// FFTs of one fixed power-of-two length. Plans of the same length share their
// tables read-only; a Plan itself carries no mutable state, so it is safe for
// concurrent Transform calls on disjoint slices.
type Plan struct {
	n int
	t *planTables
}

// NewPlan creates an FFT plan for length n (a power of two, n >= 1).
func NewPlan(n int) *Plan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a positive power of two", n))
	}
	return &Plan{n: n, t: tablesFor(n)}
}

// N returns the plan length.
func (p *Plan) N() int { return p.n }

// Transform computes the in-place complex DFT of (re, im):
//
//	X_k = sum_n x_n * exp(-2*pi*i*k*n/N)   (forward)
//
// With inverse=true it computes the unscaled inverse DFT (conjugate
// exponent); callers divide by N to invert a forward transform.
func (p *Plan) Transform(re, im []float64, inverse bool) {
	n := p.n
	if len(re) != n || len(im) != n {
		panic("fft: slice length does not match plan")
	}
	// Bit-reversal permutation.
	for i, j := range p.t.rev {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	// Stage size=2: unit twiddle, pure add/sub butterflies.
	for j := 0; j+1 < n; j += 2 {
		tre, tim := re[j+1], im[j+1]
		re[j+1] = re[j] - tre
		im[j+1] = im[j] - tim
		re[j] += tre
		im[j] += tim
	}
	// Stage size=4: twiddles are 1 and -i (forward) / +i (inverse), so the
	// second butterfly of each group is a swap/negate instead of a complex
	// multiply.
	if n >= 4 {
		for j := 0; j+3 < n; j += 4 {
			tre, tim := re[j+2], im[j+2]
			re[j+2] = re[j] - tre
			im[j+2] = im[j] - tim
			re[j] += tre
			im[j] += tim
			var ure, uim float64
			if inverse {
				ure, uim = -im[j+3], re[j+3]
			} else {
				ure, uim = im[j+3], -re[j+3]
			}
			re[j+3] = re[j+1] - ure
			im[j+3] = im[j+1] - uim
			re[j+1] += ure
			im[j+1] += uim
		}
	}
	cosTab, sinTab := p.t.cosTab, p.t.sinTab
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for j := start; j < start+half; j++ {
				c := cosTab[k]
				s := sinTab[k]
				if !inverse {
					s = -s
				}
				l := j + half
				tre := re[l]*c - im[l]*s
				tim := re[l]*s + im[l]*c
				re[l] = re[j] - tre
				im[l] = im[j] - tim
				re[j] += tre
				im[j] += tim
				k += step
			}
		}
	}
}

// cosTables holds the immutable per-length data of the real cosine/sine
// transforms: quarter-wave twiddles for the DCT post/pre-rotation and the
// pack/unpack twiddles of the half-size real FFT. Shared read-only between
// every CosPlan of the same length.
type cosTables struct {
	cosQ, sinQ []float64 // cos/sin(pi*k/(2n)), k = 0..n/2
	pakC, pakS []float64 // cos/sin(2*pi*k/n),  k = 0..n/2-1
}

var cosCache sync.Map // int -> *cosTables

func cosTablesFor(n int) *cosTables {
	if t, ok := cosCache.Load(n); ok {
		return t.(*cosTables)
	}
	h := n / 2
	t := &cosTables{
		cosQ: make([]float64, h+1),
		sinQ: make([]float64, h+1),
		pakC: make([]float64, h),
		pakS: make([]float64, h),
	}
	for k := 0; k <= h; k++ {
		ang := math.Pi * float64(k) / float64(2*n)
		t.cosQ[k] = math.Cos(ang)
		t.sinQ[k] = math.Sin(ang)
	}
	for k := 0; k < h; k++ {
		ang := 2 * math.Pi * float64(k) / float64(n)
		t.pakC[k] = math.Cos(ang)
		t.pakS[k] = math.Sin(ang)
	}
	actual, _ := cosCache.LoadOrStore(n, t)
	return actual.(*cosTables)
}

// CosPlan computes the real cosine/sine transforms of one length through a
// half-size complex FFT. The twiddle/quarter-wave tables are shared read-only
// across all plans of the same length (see the plan cache); only the packing
// scratch is private, so create one CosPlan per worker goroutine and the
// workers never contend.
type CosPlan struct {
	n    int
	half *Plan // complex FFT of length n/2 (nil when n == 1)
	t    *cosTables
	// zre, zim are the private length-n/2 packing scratch.
	zre, zim []float64
}

// NewCosPlan creates the cosine/sine transform plan for length n (power of
// two).
func NewCosPlan(n int) *CosPlan {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a positive power of two", n))
	}
	cp := &CosPlan{n: n, t: cosTablesFor(n)}
	if n > 1 {
		h := n / 2
		cp.half = NewPlan(h)
		cp.zre = make([]float64, h)
		cp.zim = make([]float64, h)
	}
	return cp
}

// N returns the plan length.
func (cp *CosPlan) N() int { return cp.n }

// DCT2 computes the (unnormalized) type-II discrete cosine transform
//
//	X_k = sum_{m=0}^{N-1} x_m * cos(pi*k*(2m+1)/(2N)),
//
// writing the result into dst (dst and src may alias). It uses Makhoul's
// even permutation, packs the permuted reals into N/2 complex points, runs
// one half-size complex FFT, and unpacks with conjugate symmetry.
func (cp *CosPlan) DCT2(dst, src []float64) {
	n := cp.n
	if len(src) != n || len(dst) != n {
		panic("fft: DCT2 length mismatch")
	}
	if n == 1 {
		dst[0] = src[0]
		return
	}
	if n == 2 {
		// Length-1 half transform is the identity; unpack directly.
		a, b := src[0], src[1]
		dst[0] = a + b
		dst[1] = cp.t.cosQ[1] * (a - b)
		return
	}
	h := n / 2
	zre, zim := cp.zre, cp.zim
	// Pack: v[m] = x[2m] for m < h, v[m] = x[2n-2m-1] for m >= h (Makhoul's
	// even permutation), then z_j = v[2j] + i*v[2j+1]. h is even for n >= 4,
	// so the permutation branch splits cleanly at j = h/2 into two
	// branch-free loops.
	for j := 0; j < h/2; j++ {
		zre[j] = src[4*j]
		zim[j] = src[4*j+2]
	}
	for j := h / 2; j < h; j++ {
		zre[j] = src[2*n-4*j-1]
		zim[j] = src[2*n-4*j-3]
	}
	cp.half.Transform(zre, zim, false)
	// Unpack V_k = E_k - i*w^k*D_k (w = e^{-2*pi*i/n}) from the half
	// spectrum and post-rotate: X_k = Re(e^{-i*pi*k/(2N)} * V_k). The
	// conjugate half follows from V_{n-k} = conj(V_k) together with the
	// quarter-wave identities cosQ[n-k] = sinQ[k], sinQ[n-k] = cosQ[k].
	cosQ, sinQ := cp.t.cosQ, cp.t.sinQ
	pakC, pakS := cp.t.pakC, cp.t.pakS
	dst[0] = zre[0] + zim[0]
	dst[h] = cp.t.cosQ[h] * (zre[0] - zim[0])
	for k := 1; k < h; k++ {
		ar, ai := zre[k], zim[k]
		br, bi := zre[h-k], -zim[h-k]
		er, ei := (ar+br)/2, (ai+bi)/2
		dr, di := (ar-br)/2, (ai-bi)/2
		c, s := pakC[k], pakS[k]
		vre := er + (c*di - s*dr)
		vim := ei - (c*dr + s*di)
		dst[k] = cosQ[k]*vre + sinQ[k]*vim
		dst[n-k] = sinQ[k]*vre - cosQ[k]*vim
	}
}

// IDCT synthesizes samples from type-II DCT coefficients with the standard
// normalization, inverting DCT2 exactly:
//
//	x_m = A_0/N + (2/N) * sum_{k=1}^{N-1} A_k * cos(pi*k*(2m+1)/(2N)).
//
// dst and src may alias.
func (cp *CosPlan) IDCT(dst, src []float64) {
	cp.synth(dst, src, nil, false)
}

// IDCTScale is IDCT of the elementwise product src[i]*scale[i]: the scaling
// folds into the spectrum-packing pass, so no separate scaled copy of the
// coefficients is ever materialized. dst and src may alias. A nil scale is
// the plain IDCT.
func (cp *CosPlan) IDCTScale(dst, src, scale []float64) {
	cp.synth(dst, src, scale, false)
}

// IDXST synthesizes the shifted sine series
//
//	s_m = (2/N) * sum_{k=1}^{N-1} B_k * sin(pi*k*(2m+1)/(2N)),
//
// the transform DREAMPlace calls IDXST, used to evaluate electric fields
// from cosine potential coefficients (B_0 is ignored). It reduces to an
// IDCT through the identity sin(w_k*(m+1/2)) = (-1)^m * cos(w_{N-k}*(m+1/2));
// the coefficient reversal and the (-1)^m sign flip are folded into the
// packing and scatter passes. dst and src may alias.
func (cp *CosPlan) IDXST(dst, src []float64) {
	cp.synth(dst, src, nil, true)
}

// IDXSTScale is IDXST of the elementwise product src[i]*scale[i]; see
// IDCTScale. dst and src may alias. A nil scale is the plain IDXST.
func (cp *CosPlan) IDXSTScale(dst, src, scale []float64) {
	cp.synth(dst, src, scale, true)
}

// synth is the shared DCT-III/IDXST synthesis: it builds the conjugate-
// symmetric spectrum V_k = e^{+i*pi*k/(2N)}*(c_k - i*c_{N-k})*(2/N) for
// k = 0..N/2 from the (optionally scaled, optionally reversed-for-sine)
// coefficients, folds it into the N/2-point spectrum of the packed real
// sequence, runs one half-size inverse FFT, and scatters the evens/odds
// back through Makhoul's permutation (negating odd outputs for the sine
// synthesis). src is fully consumed before dst is written, so they may
// alias.
func (cp *CosPlan) synth(dst, src, scale []float64, sine bool) {
	n := cp.n
	if len(src) != n || len(dst) != n {
		panic("fft: synthesis length mismatch")
	}
	if scale != nil && len(scale) != n {
		panic("fft: synthesis scale length mismatch")
	}
	if n == 1 {
		if sine {
			dst[0] = 0
		} else if scale != nil {
			dst[0] = src[0] * scale[0]
		} else {
			dst[0] = src[0]
		}
		return
	}
	h := n / 2
	zre, zim := cp.zre, cp.zim
	cosQ, sinQ := cp.t.cosQ, cp.t.sinQ
	inv := 2 / float64(n)

	// coefAt reads the effective coefficient c_k: src[k] (cosine) or the
	// reversed src[n-k] with c_0 = 0 (sine), times the optional scale.
	// Inlined below as explicit branches to keep the pack loop branch-light.
	var v0, vh float64 // V_0 and V_{n/2} (both real)
	if sine {
		if scale != nil {
			v0 = 0
			a := src[h] * scale[h]
			vh = a * (cosQ[h] + sinQ[h]) * inv
			// Build V_k for k = 1..h-1 into zre/zim (staging in the
			// scratch before the in-place spectrum fold below).
			for k := 1; k < h; k++ {
				a := src[n-k] * scale[n-k]
				b := src[k] * scale[k]
				zre[k] = (a*cosQ[k] + b*sinQ[k]) * inv
				zim[k] = (a*sinQ[k] - b*cosQ[k]) * inv
			}
		} else {
			v0 = 0
			vh = src[h] * (cosQ[h] + sinQ[h]) * inv
			for k := 1; k < h; k++ {
				a := src[n-k]
				b := src[k]
				zre[k] = (a*cosQ[k] + b*sinQ[k]) * inv
				zim[k] = (a*sinQ[k] - b*cosQ[k]) * inv
			}
		}
	} else {
		if scale != nil {
			v0 = src[0] * scale[0] * inv
			a := src[h] * scale[h]
			vh = a * (cosQ[h] + sinQ[h]) * inv
			for k := 1; k < h; k++ {
				a := src[k] * scale[k]
				b := src[n-k] * scale[n-k]
				zre[k] = (a*cosQ[k] + b*sinQ[k]) * inv
				zim[k] = (a*sinQ[k] - b*cosQ[k]) * inv
			}
		} else {
			v0 = src[0] * inv
			vh = src[h] * (cosQ[h] + sinQ[h]) * inv
			for k := 1; k < h; k++ {
				a := src[k]
				b := src[n-k]
				zre[k] = (a*cosQ[k] + b*sinQ[k]) * inv
				zim[k] = (a*sinQ[k] - b*cosQ[k]) * inv
			}
		}
	}

	// Fold the conjugate-symmetric V into the half spectrum:
	// Z_k = E_k + D_k with E_k = (V_k + conj(V_{h-k}))/2 and
	// D_k = (i/2)*e^{+2*pi*i*k/n}*(V_k - conj(V_{h-k})). The fold for pair
	// (k, h-k) reads exactly the entries it overwrites, so it runs in place
	// over the staged V values.
	pakC, pakS := cp.t.pakC, cp.t.pakS
	zre[0] = (v0 + vh) / 2
	zim[0] = (v0 - vh) / 2
	for k := 1; k <= h/2; k++ {
		ar, ai := zre[k], zim[k]
		br, bi := zre[h-k], -zim[h-k]
		er, ei := (ar+br)/2, (ai+bi)/2
		dr, di := (ar-br)/2, (ai-bi)/2
		c, s := pakC[k], pakS[k]
		zr := er - (c*di + s*dr)
		zi := ei + (c*dr - s*di)
		if k == h-k {
			zre[k], zim[k] = zr, zi
			break
		}
		// Mirror index: A' = V_{h-k}, conj(B') = conj(V_k).
		er2, ei2 := (br+ar)/2, (-bi-ai)/2
		dr2, di2 := (br-ar)/2, (-bi+ai)/2
		c2, s2 := pakC[h-k], pakS[h-k]
		zre[h-k] = er2 - (c2*di2 + s2*dr2)
		zim[h-k] = ei2 + (c2*dr2 - s2*di2)
		zre[k], zim[k] = zr, zi
	}
	cp.half.Transform(zre, zim, true)

	// Scatter: v[2j] = Re z_j, v[2j+1] = Im z_j, then undo the even
	// permutation (v[m] -> x[2m] for m < h, v[m] -> x[2n-2m-1] for m >= h).
	// The m >= h branch lands exactly on the odd outputs, which is where the
	// sine synthesis flips signs. h is even for n >= 4, so the branch splits
	// cleanly at j = h/2 into branch-free loops; n == 2 (h == 1) straddles
	// the split within one element and is handled directly.
	if h == 1 {
		dst[0] = zre[0]
		if sine {
			dst[1] = -zim[0]
		} else {
			dst[1] = zim[0]
		}
		return
	}
	for j := 0; j < h/2; j++ {
		dst[4*j] = zre[j]
		dst[4*j+2] = zim[j]
	}
	if sine {
		for j := h / 2; j < h; j++ {
			dst[2*n-4*j-1] = -zre[j]
			dst[2*n-4*j-3] = -zim[j]
		}
	} else {
		for j := h / 2; j < h; j++ {
			dst[2*n-4*j-1] = zre[j]
			dst[2*n-4*j-3] = zim[j]
		}
	}
}

// naiveDCT2 is the O(N^2) reference used by tests.
func naiveDCT2(dst, src []float64) {
	n := len(src)
	for k := 0; k < n; k++ {
		s := 0.0
		for m := 0; m < n; m++ {
			s += src[m] * math.Cos(math.Pi*float64(k)*(2*float64(m)+1)/(2*float64(n)))
		}
		dst[k] = s
	}
}
