package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before the
// benchmark reports it.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest rank of percentile pct among n samples: the
// smallest rank with at least pct percent of the samples at or below it.
func rank(n int, pct float64) int {
	r := int(math.Ceil(pct/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile pct (0 < pct <= 100) of
// xs without modifying xs, and 0 for an empty slice.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail returns the highest of tailPercentiles that has at least minBeyond
// samples above its rank, with its value. ok is false when even the median
// has fewer than minBeyond samples above it.
func tail(xs []float64) (pct, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(xs)-rank(len(xs), p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
