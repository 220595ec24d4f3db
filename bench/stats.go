package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of the samples by
// linear interpolation between the two nearest ranks — smoother run to run
// than nearest-rank at the sample counts one window yields. The
// input need not be sorted and is not modified. An empty input yields 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// guardedPercentiles are the tail percentiles the harness is willing to
// report, lowest first.
var guardedPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// highestGuardedPercentile returns the highest reportable percentile that
// still has at least ten samples beyond it (choosing-metrics §1): with n
// samples, p qualifies when n·(1−p/100) ≥ 10. Below 20 samples not even
// the median qualifies and it returns 0.
func highestGuardedPercentile(n int) float64 {
	best := 0.0
	for _, p := range guardedPercentiles {
		// The epsilon absorbs binary rounding in 1-p/100 (n=1000, p=99
		// would otherwise compute 9.999…).
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method): the
// driver judges the benchmark's spread with exactly that function, so the
// repeatability gate must too. Fewer than two values yield the value
// itself three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th cut point of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
