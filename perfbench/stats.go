package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// columnMedians returns, for each index i, the median of runs[k][i]
// over the runs, up to the shortest run's length. Runs that repeat the
// same input give each index the same work, so a column's median is
// that work's cost with a one-run hiccup (a scheduler slice, a stolen
// vCPU) voted out.
func columnMedians(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs[1:] {
		n = min(n, len(r))
	}
	out := make([]float64, n)
	col := make([]float64, len(runs))
	for i := range out {
		for k, r := range runs {
			col[k] = r[i]
		}
		out[i] = median(col)
	}
	return out
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond a percentile for it
// to be reported: fewer, and the value is one or two outliers.
const tailMinBeyond = 10

// Tail is a timing distribution's reported tail: the highest percentile
// of the ladder with at least tailMinBeyond samples beyond it.
type Tail struct {
	Pct     float64 `json:"pct"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// tail picks the highest ladder percentile of samples that still has
// tailMinBeyond samples above it. ok is false when even the median has
// too few samples beyond it.
func tail(samples []float64) (t Tail, ok bool) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if beyond(len(s), p) >= tailMinBeyond {
			return Tail{Pct: p, Value: percentile(s, p), Samples: len(s)}, true
		}
	}
	return Tail{Samples: len(s)}, false
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples;
// the epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// Dist summarises one timing distribution for the result file: median,
// p95, p99 and the reportable tail, with the sample count.
type Dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Tail Tail    `json:"tail"`
}

// summarize fills a Dist from raw samples.
func summarize(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t, _ := tail(s)
	return Dist{N: len(s), P50: percentile(s, 50), P95: percentile(s, 95), P99: percentile(s, 99), Tail: t}
}
