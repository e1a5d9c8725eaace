package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks. It returns 0 for no samples, so a
// layer that did no work on a workload reports zero time.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sum adds xs up.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// within reports whether a and b agree to the conservation tolerance the
// repo's invariants use (1e-6 W).
func within(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
