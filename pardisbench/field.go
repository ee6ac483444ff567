package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// field returns n values of a smooth seeded field: the rounded sum of two
// sinusoids with seeded periods, amplitudes and phases on a seeded offset.
// The values are integers well below 2^53, so the servant's transform and
// the per-invocation offset are exact in float64, and neighbouring values
// share most of their bits — the property the XOR block codec exploits on
// the thin-link workload.
func field(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	p1 := float64(2048 + r.Intn(6144))
	p2 := float64(128 + r.Intn(384))
	a1 := 500 + 3500*r.Float64()
	a2 := 20 + 180*r.Float64()
	ph1 := 2 * math.Pi * r.Float64()
	ph2 := 2 * math.Pi * r.Float64()
	base := float64(1<<16 + r.Intn(1<<20))
	v := make([]float64, n)
	for g := range v {
		x := float64(g)
		v[g] = base + math.Round(a1*math.Sin(2*math.Pi*x/p1+ph1)+a2*math.Sin(2*math.Pi*x/p2+ph2))
	}
	return v
}

// The invocation with sequence number k sends field[g]+offset(k) at every
// global index g; the servant checks that and replies with transform of it.
// Tying the input to k catches stale or crossed-over data, such as one
// pipelined slot's array delivered for another's.
func offset(k uint32) float64 { return float64(k % 4096) }

func transform(x float64) float64 { return 2*x + 1 }

// fillSlot writes the expected input of invocation k into this rank's
// local elements, whose global indices are the rank's layout intervals.
func fillSlot(local []float64, ivs []dist.Interval, want []float64, k uint32) {
	off := offset(k)
	i := 0
	for _, iv := range ivs {
		for g := iv.Start; g < iv.End(); g++ {
			local[i] = want[g] + off
			i++
		}
	}
}

// checkSlot compares this rank's local elements against want transformed by
// f (the identity on the servant's side, transform on the client's) and
// returns the number of differing elements together with the first one.
func checkSlot(local []float64, ivs []dist.Interval, want []float64, k uint32, f func(float64) float64) (int, error) {
	off := offset(k)
	bad := 0
	var first error
	i := 0
	for _, iv := range ivs {
		for g := iv.Start; g < iv.End(); g++ {
			if exp := f(want[g] + off); local[i] != exp {
				if first == nil {
					first = fmt.Errorf("element %d of invocation %d is %v, want %v", g, k, local[i], exp)
				}
				bad++
			}
			i++
		}
	}
	return bad, first
}

func identity(x float64) float64 { return x }
