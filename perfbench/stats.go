package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for it
// to count as measured: a p99 over 300 samples rests on three values, which
// is noise, so it is not reported.
const minBeyond = 10

// percentiles are the tail points a summary may report, highest last.
var percentiles = []float64{50, 90, 99, 99.9, 99.99}

// quantile returns the nearest-rank p-th percentile of sorted samples and how
// many samples lie strictly above its rank.
func quantile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := rankOf(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// supported reports whether the p-th percentile of n samples has at least
// minBeyond samples above it.
func supported(n int, p float64) bool { return n-rankOf(n, p) >= minBeyond }

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps p·n/100 products such as 99.9·10000 from rounding up a
// whole rank.
func rankOf(n int, p float64) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// Summary is a timing distribution reported the way the ledger wants it: the
// median, the highest percentile with at least minBeyond samples beyond it,
// and the sample count.
type Summary struct {
	N      int
	P50    float64
	TailP  float64 // the reported tail percentile, 0 when none is supported
	Tail   float64
	Beyond int
	Mean   float64
	sorted []float64
}

// summarize sorts a copy of xs and reduces it to a Summary.
func summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.sorted = append([]float64(nil), xs...)
	sort.Float64s(s.sorted)
	var sum float64
	for _, v := range s.sorted {
		sum += v
	}
	s.Mean = sum / float64(len(xs))
	s.P50, _ = quantile(s.sorted, 50)
	for _, p := range percentiles[1:] {
		if !supported(len(xs), p) {
			break
		}
		s.TailP = p
		s.Tail, s.Beyond = quantile(s.sorted, p)
	}
	return s
}

// At returns the p-th percentile, or an error when fewer than minBeyond
// samples lie beyond it.
func (s Summary) At(p float64) (float64, error) {
	if !supported(s.N, p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d",
			p, minBeyond, s.N, s.N-rankOf(s.N, p))
	}
	v, _ := quantile(s.sorted, p)
	return v, nil
}

// String renders the summary with its sample count, in the unit of the
// samples.
func (s Summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	if s.TailP == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, no tail percentile has %d beyond)", s.P50, s.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.4g  p%g %.4g (n=%d, %d beyond)", s.P50, s.TailP, s.Tail, s.N, s.Beyond)
}

// windowedP99 splits samples, in the order they were taken, into the most
// consecutive windows that each support a p99 (1000 samples), and returns
// the median of the windows' p99s and the p99s themselves: one disturbed
// stretch of the run then cannot set its tail alone.
func windowedP99(xs []float64) (float64, []float64, error) {
	k := len(xs) / 1000
	if k == 0 {
		_, err := summarize(xs).At(99)
		return 0, nil, err
	}
	var p99s []float64
	for w := 0; w < k; w++ {
		lo, hi := w*len(xs)/k, (w+1)*len(xs)/k
		v, err := summarize(xs[lo:hi]).At(99)
		if err != nil {
			return 0, nil, err
		}
		p99s = append(p99s, v)
	}
	return median(p99s), p99s, nil
}

// setLatency reports a workload's request latencies (ms, in the order they
// were taken): the median and p90 as metrics, and the windowed p99 as a
// printed line. The p99 is not a bounded metric: on a shared two-CPU host
// its run-to-run spread reached 50%, twice the largest bound allowed.
func setLatency(rep *report, lat []float64, what string) error {
	s := summarize(lat)
	p90, err := s.At(90)
	if err != nil {
		return fmt.Errorf("latency_p90_ms: %w", err)
	}
	p99, p99s, err := windowedP99(lat)
	if err != nil {
		return fmt.Errorf("latency_p99_ms: %w", err)
	}
	rep.set("latency_p50_ms", s.P50, fmt.Sprintf("(%s, n=%d)", what, s.N))
	rep.set("latency_p90_ms", p90, fmt.Sprintf("(n=%d, %d beyond)", s.N, s.N-rankOf(s.N, 90)))
	rep.info("latency_p99_ms %.6g ms (median p99 of %d windows %.4g; pooled %s)", p99, len(p99s), p99s, s)
	return nil
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// qerror is the symmetric ratio error with both sides floored at one, the
// paper's accuracy measure.
func qerror(est, act float64) float64 {
	e, a := math.Max(est, 1), math.Max(act, 1)
	return math.Max(e/a, a/e)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name may appear in the result line.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
