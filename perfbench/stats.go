package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeReps calls fn reps times and returns each call's wall time in ns.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t := time.Now()
		fn()
		out[i] = float64(time.Since(t).Nanoseconds())
	}
	return out
}
