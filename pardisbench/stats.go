package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q of all samples at
// or below it. It sorts samples in place and returns 0 for none.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

func median(v []time.Duration) time.Duration { return percentile(v, 0.5) }

// medianFloat is the nearest-rank median of v, sorted in place; 0 for none.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[(len(v)+1)/2-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named value of the result line.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed on the human-readable line only, e.g. sample counts
}
