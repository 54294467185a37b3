package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; 0 for an empty sample.
// xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail timing may be reported at,
// in tenths of a percent, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is the number of samples a reported percentile must have
// above it.
const minBeyond = 10

// beyond counts the samples of an n-sample run that lie above the
// percentile given in tenths of a percent.
func beyond(n, q10 int) int { return n * (1000 - q10) / 1000 }

// tailPercentile returns the highest percentile of tailLadder (in
// tenths) with at least minBeyond of n samples above it, and false when
// n is too small for any of them.
func tailPercentile(n int) (int, bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// interval is a half-open [start, end) span of time, in the
// microseconds of obs.Event timestamps.
type interval struct{ start, end int64 }

// union merges intervals into a sorted list of disjoint intervals.
func union(ivs []interval) []interval {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// length is the summed length of disjoint intervals.
func length(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.end - iv.start
	}
	return n
}

// subtract returns the parts of iv not covered by the disjoint sorted
// intervals cut.
func subtract(iv interval, cut []interval) []interval {
	var out []interval
	cur := iv.start
	for _, c := range cut {
		if c.end <= cur || c.start >= iv.end {
			continue
		}
		if c.start > cur {
			out = append(out, interval{cur, c.start})
		}
		if c.end > cur {
			cur = c.end
		}
	}
	if cur < iv.end {
		out = append(out, interval{cur, iv.end})
	}
	return out
}
