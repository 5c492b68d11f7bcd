package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile with fewer is a handful of outliers, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples together
// with the number of samples strictly beyond its rank. It refuses a
// quantile that fewer than minBeyond samples lie beyond.
func percentile(samples []float64, q float64) (value float64, beyond int, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	beyond = n - 1 - k
	if beyond < minBeyond && q > 0.5 {
		return 0, beyond, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it; need %d", q*100, n, beyond, minBeyond)
	}
	return sorted[k], beyond, nil
}

// median is the nearest-rank 0.5-quantile (no tail requirement).
func median(samples []float64) float64 {
	v, _, err := percentile(samples, 0.5)
	if err != nil {
		return 0
	}
	return v
}
