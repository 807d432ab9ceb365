package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects operation times for one kind of operation.
type latencies []time.Duration

// pct returns the q-th percentile (0 < q <= 100) in milliseconds by the
// nearest-rank rule, or 0 for an empty sample.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1])
}

// beyond reports how many samples lie above the q-th percentile, the
// count the report states for every tail figure.
func (l latencies) beyond(q float64) int {
	return len(l) - int(math.Ceil(q/100*float64(len(l))))
}

func (l latencies) sum() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2].Seconds()
	}
	return (s[n/2-1] + s[n/2]).Seconds() / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
