package main

import (
	"math"
	"sort"
)

// ladder lists the percentiles a tail may be reported at, in basis
// points (9900 = p99).
var ladder = []int{5000, 7500, 9000, 9500, 9900, 9990, 9999}

// rank returns the 1-based nearest-rank index of percentile p (basis
// points) among n sorted samples.
func rank(n, p int) int {
	r := (n*p + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at
// least 10 of n samples beyond its nearest-rank sample, and false when
// even the median does not.
func tailPercentile(n int) (p int, ok bool) {
	for _, q := range ladder {
		if n-rank(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// quantile returns the nearest-rank percentile p (basis points) of
// xs, which must be sorted and non-empty.
func quantile(xs []float64, p int) float64 { return xs[rank(len(xs), p)-1] }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs, averaging the middle pair when
// len(xs) is even, and 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest ladder percentile of xs with at least 10
// samples beyond it, that percentile in basis points, and false when
// there are too few samples.
func tail(xs []float64) (v float64, p int, ok bool) {
	p, ok = tailPercentile(len(xs))
	if !ok {
		return 0, 0, false
	}
	return quantile(sorted(xs), p), p, true
}

// geomean returns the geometric mean of positive xs, and 0 when xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// kinds holds the latency samples of a workload's operation kinds, in
// the order the kinds were first seen.
type kinds struct {
	order   []string
	samples map[string][]float64
}

func (k *kinds) add(kind string, v float64) {
	if k.samples == nil {
		k.samples = map[string][]float64{}
	}
	if _, ok := k.samples[kind]; !ok {
		k.order = append(k.order, kind)
	}
	k.samples[kind] = append(k.samples[kind], v)
}

// p25 is the geometric mean over kinds of each kind's lower quartile:
// one typical latency that every kind moves in proportion to its
// change.
func (k *kinds) p25() float64 {
	qs := make([]float64, 0, len(k.order))
	for _, name := range k.order {
		qs = append(qs, quantile(sorted(k.samples[name]), 2500))
	}
	return geomean(qs)
}
