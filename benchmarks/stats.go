package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be more than a reading of the few slowest operations. Percentiles are
// fixed (p50, p99) so that two runs always compare the same statistic; a
// run whose p99 has fewer samples beyond it says so beside the number.
const minBeyond = 10

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// latencies summarises one workload's caller-observed operation times.
// A failed operation has no latency but still counts as a sample that
// missed every percentile: it sorts above all successes.
type latencies struct {
	sorted []time.Duration // successful operations, ascending
	failed int
}

func newLatencies(ok []time.Duration, failed int) latencies {
	s := append([]time.Duration(nil), ok...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return latencies{sorted: s, failed: failed}
}

// count is the number of samples, failures included.
func (l latencies) count() int { return len(l.sorted) + l.failed }

// percentile returns the nearest-rank p-th percentile over successes and
// failures together: the miss sentinel (math.MaxInt64) when the rank
// falls on a failed operation, the empty sentinel (math.MinInt64) when
// there are no samples. ms turns the sentinels into +Inf and NaN.
func (l latencies) percentile(p float64) time.Duration {
	n := l.count()
	if n == 0 {
		return time.Duration(math.MinInt64)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.sorted) {
		return time.Duration(math.MaxInt64)
	}
	return l.sorted[rank-1]
}

// ms converts a percentile to milliseconds, mapping the miss sentinel to
// +Inf and the empty sentinel to NaN.
func ms(d time.Duration) float64 {
	switch d {
	case time.Duration(math.MaxInt64):
		return math.Inf(1)
	case time.Duration(math.MinInt64):
		return math.NaN()
	}
	return float64(d) / float64(time.Millisecond)
}

// median of a float slice; NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
