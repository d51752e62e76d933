// Package stats provides the small statistical toolkit the evaluation
// uses: means, geometric means, the statistical mode over quantized
// observations (used by the HPE ratio matrix of §V), percent
// improvements and sorted summaries.
package stats

import (
	"fmt"
	"math"
	"sort"

	"ampsched/internal/rng"
)

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values. It returns
// an error if any value is non-positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: GeoMean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean needs positive values, got %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Min returns the minimum, or +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or -Inf for empty input.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Mode returns the statistical mode of xs after quantizing each value
// to multiples of step. Ties break toward the smaller value so the
// result is deterministic. The returned value is the mean of the raw
// observations inside the winning bin (so the mode retains sub-step
// precision, as when the paper reports mode ~= mean per bin).
func Mode(xs []float64, step float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: Mode of empty slice")
	}
	if step <= 0 {
		return 0, fmt.Errorf("stats: Mode needs positive step, got %g", step)
	}
	type bin struct {
		n   int
		sum float64
	}
	bins := make(map[int64]*bin)
	for _, x := range xs {
		k := int64(math.Floor(x / step))
		b := bins[k]
		if b == nil {
			b = &bin{}
			bins[k] = b
		}
		b.n++
		b.sum += x
	}
	keys := make([]int64, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	best := keys[0]
	for _, k := range keys[1:] {
		if bins[k].n > bins[best].n {
			best = k
		}
	}
	b := bins[best]
	return b.sum / float64(b.n), nil
}

// SortedCopy returns an ascending-sorted copy.
func SortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// BottomK returns the k smallest values (ascending); k is clamped.
func BottomK(xs []float64, k int) []float64 {
	s := SortedCopy(xs)
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

// TopK returns the k largest values (ascending order preserved from
// the sorted slice); k is clamped.
func TopK(xs []float64, k int) []float64 {
	s := SortedCopy(xs)
	if k > len(s) {
		k = len(s)
	}
	return s[len(s)-k:]
}

// BootstrapCI returns a percentile bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using
// resamples drawn from the seeded generator. It returns lo == hi ==
// Mean(xs) for fewer than two observations.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed uint64) (lo, hi float64) {
	m := Mean(xs)
	if len(xs) < 2 || resamples < 10 || confidence <= 0 || confidence >= 1 {
		return m, m
	}
	r := rng.New(seed)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[r.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return means[loIdx], means[hiIdx]
}
