package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks; NaN for no values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// weightedMedian is the value at half the total weight, averaging the
// two neighbours when the half falls exactly between them (as the
// plain median does for an even count); NaN for no values.
func weightedMedian(vals, weights []float64) float64 {
	idx := make([]int, len(vals))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	acc := 0.0
	for j, i := range idx {
		acc += weights[i]
		if acc > total/2 {
			return vals[i]
		}
		if acc == total/2 && j+1 < len(idx) {
			return (vals[i] + vals[idx[j+1]]) / 2
		}
	}
	return vals[idx[len(idx)-1]]
}

// tail is the highest percentile of values that still has at least
// minBeyond samples above it, with that percentile and the sample
// count. With fewer than minBeyond+1 samples the maximum stands in.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

const minBeyond = 10

func tailOf(values []float64) tail {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	if n <= minBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	// Whole-percent steps keep the reported percentile readable:
	// the highest p with n*(1-p/100) >= minBeyond.
	p := math.Floor(100 * (1 - float64(minBeyond)/float64(n)))
	return tail{Value: quantile(s, p/100), Percentile: p, Samples: n}
}

// quartiles returns the first quartile, median and third quartile
// exactly as Python's statistics.quantiles(values, n=4) computes them
// (the default exclusive method, including its clamping).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
