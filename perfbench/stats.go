package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at;
// tailPercentile picks the highest one the sample count supports.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// quantile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func quantile(sorted []float64, p float64) float64 {
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

// beyond counts the samples of a size-n set that lie strictly beyond the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - max(nearestRank(n, p), 1)
}

// nearestRank is ceil(p% of n), immune to the rounding of p/100 (99.9%
// of 10000 is 9990, not 9991).
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// admits reports whether n samples support reporting the p-th percentile.
func admits(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond samples beyond it, or ok=false when even the median
// has too few.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if admits(n, tailLadder[i]) {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// opLog accounts for the operations of one timed phase: every attempt,
// every failure, and the latency of each operation.  A failed or refused
// operation is recorded as an infinite latency, so it misses every
// latency percentile instead of silently shrinking the sample.
type opLog struct {
	attempted, failed int
	lat               []float64 // seconds; +Inf for a failed operation
}

// ok records a successful operation that took sec seconds.
func (l *opLog) ok(sec float64) {
	l.attempted++
	l.lat = append(l.lat, sec)
}

// fail records a failed or refused operation.
func (l *opLog) fail() {
	l.attempted++
	l.failed++
	l.lat = append(l.lat, math.Inf(1))
}

// merge folds o into l.
func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.lat = append(l.lat, o.lat...)
}

// failRatio is failed over attempted operations (0 when none attempted).
func (l *opLog) failRatio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// latencyStat is one reported latency percentile with its sample count.
type latencyStat struct {
	P  float64 // percentile, 0..100
	N  int     // samples, failures included
	Ms float64 // +Inf when a failure falls at or below the percentile
}

func (s latencyStat) String() string {
	return fmt.Sprintf("p%g=%.4f ms (n=%d)", s.P, s.Ms, s.N)
}

// median returns the median latency in milliseconds; ok=false when no
// operation was attempted.
func (l *opLog) median() (latencyStat, bool) {
	if len(l.lat) == 0 {
		return latencyStat{P: 50}, false
	}
	return latencyStat{P: 50, N: len(l.lat), Ms: median(l.lat) * 1e3}, true
}

// percentile returns the p-th latency percentile in milliseconds, or
// ok=false when fewer than minBeyond samples lie beyond it.
func (l *opLog) percentile(p float64) (latencyStat, bool) {
	n := len(l.lat)
	if n == 0 || !admits(n, p) {
		return latencyStat{P: p, N: n}, false
	}
	s := append([]float64(nil), l.lat...)
	sort.Float64s(s)
	return latencyStat{P: p, N: n, Ms: quantile(s, p) * 1e3}, true
}

// tail returns the highest admissible percentile of the ladder.
func (l *opLog) tail() (latencyStat, bool) {
	p, ok := tailPercentile(len(l.lat))
	if !ok {
		return latencyStat{N: len(l.lat)}, false
	}
	return l.percentile(p)
}

// quartiles renders the first and third quartiles of xs.
func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.6g..%.6g", quantile(s, 25), quantile(s, 75))
}
