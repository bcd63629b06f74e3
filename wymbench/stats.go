package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to count as measured rather than guessed.
const minBeyond = 10

// tail is a tail-latency estimate with the evidence behind it.
type tail struct {
	Value  float64 // the sample at the percentile
	Q      float64 // the percentile actually reported, in (0, 1]
	N      int     // samples
	Beyond int     // samples strictly above the reported rank
}

// tailOf returns the nearest-rank q-th percentile of xs when at least
// minBeyond samples lie beyond it. With fewer samples it falls back to the
// highest percentile that still has minBeyond samples beyond, but never
// below the median: when even the median lacks them, it reports the
// maximum. xs is sorted in place.
func tailOf(xs []float64, q float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	sort.Float64s(xs)
	idx := max(int(math.Ceil(q*float64(n)))-1, 0)
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
		if idx < (n-1)/2 {
			idx = n - 1
		}
	}
	return tail{Value: xs[idx], Q: float64(idx+1) / float64(n), N: n, Beyond: n - 1 - idx}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// f1 is the harmonic mean of precision and recall from confusion counts;
// 0 when nothing was predicted or expected.
func f1(tp, fp, fn int) float64 {
	if 2*tp+fp+fn == 0 {
		return 0
	}
	return float64(2*tp) / float64(2*tp+fp+fn)
}

// confusion accumulates binary decision counts against labels.
type confusion struct{ TP, FP, FN, TN int }

func (c *confusion) add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted:
		c.FP++
	case actual:
		c.FN++
	default:
		c.TN++
	}
}

func (c confusion) f1() float64 { return f1(c.TP, c.FP, c.FN) }
