package main

import (
	"math"
	"sort"
)

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// median is the middle value of xs, averaging the two middle values of
// an even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
