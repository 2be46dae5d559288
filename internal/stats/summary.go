package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Summary accumulates streaming moments using Welford's algorithm plus exact
// extremes. The zero value is an empty, ready-to-use accumulator.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Percentile computes the p-quantile (p in [0,1]) of xs using the
// nearest-rank method. It returns 0 for an empty slice and leaves xs
// untouched.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return PercentileInPlace(cp, p)
}

// PercentileInPlace is Percentile without the copy: it reorders xs. The
// result is exactly the element sort.Float64s would place at the nearest
// rank, found in expected linear time instead of a full sort.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Nearest-rank: the smallest value such that at least ceil(p*n)
	// observations are <= it.
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return selectRank(xs, rank-1, bits.Len(uint(n)))
}

// selectSortBelow is the range length at or below which selectRank sorts
// instead of partitioning.
const selectSortBelow = 16

// selectRank returns the element sort.Float64s would place at index k of
// xs, reordering xs. It is a quickselect with median-of-three pivots and a
// three-way partition, so a block of ties (such as the +Inf latencies of
// shed queries) settles in one round. A round that keeps more than three
// quarters of its range is unproductive; once more than budget of them have
// run, it sorts the remaining range, which bounds the worst case at
// O(n log n). Elements that compare equal are interchangeable, so the
// result can differ from sort.Float64s only between 0 and -0 or between
// NaN payloads, where the sort's own choice is arbitrary.
func selectRank(xs []float64, k, budget int) float64 {
	// NaNs sort first, as in sort.Float64s.
	lo, hi := 0, len(xs)
	for i, x := range xs {
		if x != x {
			xs[i], xs[lo] = xs[lo], x
			lo++
		}
	}
	if k < lo {
		return xs[k]
	}
	for hi-lo > selectSortBelow && budget >= 0 {
		pivot := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Partition into [lo,lt) < pivot, [lt,gt) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[i], xs[lt] = xs[lt], x
				lt++
				i++
			case x > pivot:
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		n := hi - lo
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k]
		}
		if hi-lo > n-n/4 {
			budget--
		}
	}
	sort.Float64s(xs[lo:hi])
	return xs[k]
}

// median3 returns the median of three non-NaN values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// FractionBelow returns the fraction of xs that are <= limit. It is the
// QoS-satisfaction-rate primitive: Rsat = FractionBelow(latencies, target).
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, x := range xs {
		if x <= limit {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// MeanOf returns the arithmetic mean of xs (0 for empty input).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
