package main

import (
	"math"
	"sort"
	"time"
)

// rankIndex is the nearest-rank index of percentile p in n sorted values.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile is the highest of 99 and below that leaves at least ten
// of n samples beyond it.
func tailPercentile(n int) float64 {
	for p := 99.0; p > 50; p-- {
		if n-1-rankIndex(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// durPercentile returns percentile p of ds in microseconds.
func durPercentile(ds []time.Duration, p float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rankIndex(len(s), p)].Nanoseconds()) / 1e3
}

func percentileInts(v []int, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int(nil), v...)
	sort.Ints(s)
	return float64(s[rankIndex(len(s), p)])
}

// histPercentile returns percentile p of a histogram whose index is the value.
func histPercentile(h []uint64, p float64) int {
	var n uint64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0
	}
	want := uint64(rankIndex(int(n), p)) + 1
	var seen uint64
	for v, c := range h {
		seen += c
		if seen >= want {
			return v
		}
	}
	return len(h) - 1
}

// histMax returns the largest value a histogram holds.
func histMax(h []uint64) int {
	for v := len(h) - 1; v >= 0; v-- {
		if h[v] > 0 {
			return v
		}
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
