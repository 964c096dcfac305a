package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// latencies collects per-operation timings.
type latencies []time.Duration

// pct is the nearest-rank q-quantile in milliseconds.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// spectrum renders the latency percentiles a tail is chosen from.
func (l latencies) spectrum() string {
	return fmt.Sprintf("p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f, p99.9 %.3f ms over %d samples",
		l.pct(0.5), l.pct(0.9), l.pct(0.95), l.pct(0.99), l.pct(0.999), len(l))
}

// rateWindows is how many equal time windows a measured phase is cut
// into for its throughput: the reported rate is the median of the
// windows' rates, so a few seconds in which the machine's other tenants
// take the CPU move it less than they move a whole-run mean.
const rateWindows = 5

// windowedRate is the median over rateWindows equal windows of the
// operations completed per second; done holds each operation's
// completion time as an offset from the start of the phase.
func windowedRate(done []time.Duration, elapsed time.Duration) float64 {
	w := elapsed / rateWindows
	counts := make([]float64, rateWindows)
	for _, d := range done {
		i := int(d / w)
		if i >= rateWindows {
			i = rateWindows - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the spread measure
// the benchmark's bounds are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
