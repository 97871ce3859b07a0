package main

import (
	"sort"
	"time"
)

// Estimators. Interference from the host only ever adds time, so a time is
// estimated by a low percentile: the floor the code reaches when the host
// leaves it alone. Medians are reported next to the floors as per-layer
// values.

// series is a set of repeated measurements of one quantity.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

func (s *series) addDur(d time.Duration) { s.add(ms(d)) }

// quantile interpolates linearly between order statistics; 0 for no data.
func (s series) quantile(q float64) float64 {
	sorted := append(series(nil), s...)
	sort.Float64s(sorted)
	return sorted.quantileSorted(q)
}

// quantileSorted is quantile for a series already in ascending order.
func (sorted series) quantileSorted(q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// floorQuantile is the percentile that estimates a time. Measured on this
// host over 40 runs of web-steady, the spread between quartiles of the
// window-time estimate was 1.8% for the minimum, 3.2% for the 2nd
// percentile, 4.5% for the 5th, 6.0% for the 10th and 8.1% for the 25th: the
// lower, the steadier. The 2nd keeps a few repetitions below it even in the
// shortest series (about 70 kernel rounds a run), so one freak repetition
// does not set it.
const floorQuantile = 0.02

// floor is the estimate of a time.
func (s series) floor() float64 { return s.quantile(floorQuantile) }

func (s series) median() float64 { return s.quantile(0.50) }

func (s series) min() float64 { return s.quantile(0) }

// fastPhaseShare is the share of the repetitions that ran within 10% of the
// floor. It is at least floorQuantile by construction; a value near that
// means the fast repetitions are a thin tail and not a plateau, so the
// floor is not a level the code held for any stretch of the run.
func (s series) fastPhaseShare() float64 {
	if len(s) == 0 {
		return 0
	}
	limit := s.floor() * 1.10
	n := 0
	for _, v := range s {
		if v <= limit {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rng is a splitmix64 generator: the benchmark's inputs depend on the seed
// and on nothing else.
type rng struct{ state uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{state: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
