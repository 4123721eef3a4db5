package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail: fewer, and one slow op moves it.
const minBeyond = 10

// beyond is the number of samples strictly above the p-th percentile of n
// samples.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailPercentile is the highest percentile on the ladder with at least
// minBeyond samples beyond it at n samples; 50 when n is too small for
// any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks. xs need not be sorted; it is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match the ones a reader recomputes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(j int) float64 {
		pos := float64(j) * float64(n+1) / 4
		k := int(math.Floor(pos))
		if k < 1 {
			k = 1
		} else if k > n-1 {
			k = n - 1
		}
		// Like Python, extrapolate rather than clamp past the ends.
		return s[k-1] + (s[k]-s[k-1])*(pos-float64(k))
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
