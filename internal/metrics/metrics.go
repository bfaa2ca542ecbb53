// Package metrics implements the evaluation metrics used throughout the
// paper's experiment section: MSE, MAPE, mean q-error, per-threshold
// breakdowns, and a monotonicity checker.
package metrics

import (
	"fmt"
	"math"
)

// MSE returns the mean squared error between estimates and actuals
// (paper Section 2.1).
func MSE(actual, estimated []float64) float64 {
	checkLens(actual, estimated)
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i, c := range actual {
		d := c - estimated[i]
		s += d * d
	}
	return s / float64(len(actual))
}

// MAPE returns the mean absolute percentage error in percent
// (paper Section 2.1). Zero actual cardinalities contribute using a floor of
// one result, matching the usual convention for count data.
func MAPE(actual, estimated []float64) float64 {
	checkLens(actual, estimated)
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i, c := range actual {
		denom := c
		if denom < 1 {
			denom = 1
		}
		s += math.Abs(c-estimated[i]) / denom
	}
	return 100 * s / float64(len(actual))
}

// MeanQError returns the mean q-error, the symmetric version of MAPE used in
// paper Table 5: mean over queries of max(c/ĉ, ĉ/c). Counts are floored at
// one so zero cardinalities and zero estimates stay finite.
func MeanQError(actual, estimated []float64) float64 {
	checkLens(actual, estimated)
	if len(actual) == 0 {
		return 0
	}
	var s float64
	for i, c := range actual {
		s += QError(c, estimated[i])
	}
	return s / float64(len(actual))
}

// QError returns the q-error of a single (actual, estimate) pair:
// max(c/ĉ, ĉ/c) with both counts floored at one, so zero cardinalities and
// zero estimates stay finite. Always ≥ 1; the serving-layer drift monitor
// accumulates these online.
func QError(actual, estimated float64) float64 {
	if actual < 1 {
		actual = 1
	}
	if estimated < 1 {
		estimated = 1
	}
	return math.Max(actual/estimated, estimated/actual)
}

// Report bundles the three headline accuracy metrics.
type Report struct {
	MSE, MAPE, MeanQError float64
	N                     int
}

// Evaluate computes all three metrics at once.
func Evaluate(actual, estimated []float64) Report {
	return Report{
		MSE:        MSE(actual, estimated),
		MAPE:       MAPE(actual, estimated),
		MeanQError: MeanQError(actual, estimated),
		N:          len(actual),
	}
}

// String renders the report as one line.
func (r Report) String() string {
	return fmt.Sprintf("MSE=%.2f MAPE=%.2f%% q-error=%.3f (n=%d)", r.MSE, r.MAPE, r.MeanQError, r.N)
}

// GroupByKey splits (actual, estimated) pairs by an integer key (e.g. the
// query threshold for Figure 5, or a cardinality bucket for Figure 9) and
// evaluates each group.
func GroupByKey(keys []int, actual, estimated []float64) map[int]Report {
	checkLens(actual, estimated)
	if len(keys) != len(actual) {
		panic("metrics: key length mismatch")
	}
	groupA := map[int][]float64{}
	groupE := map[int][]float64{}
	for i, k := range keys {
		groupA[k] = append(groupA[k], actual[i])
		groupE[k] = append(groupE[k], estimated[i])
	}
	out := make(map[int]Report, len(groupA))
	for k := range groupA {
		out[k] = Evaluate(groupA[k], groupE[k])
	}
	return out
}

// IsMonotonic reports whether the estimate sequence (ordered by increasing
// threshold for one fixed query) never decreases, within a small numerical
// tolerance. This is the property CardNet guarantees by construction.
func IsMonotonic(estimates []float64) bool {
	const tol = 1e-9
	for i := 1; i < len(estimates); i++ {
		if estimates[i] < estimates[i-1]-tol {
			return false
		}
	}
	return true
}

// ImprovementRatio returns the γ metric of paper Table 7:
// (ξ(replaced) − ξ(full)) / ξ(replaced), i.e. the relative improvement the
// full model achieves over a variant with one component replaced.
func ImprovementRatio(replaced, full float64) float64 {
	if replaced == 0 {
		return 0
	}
	return (replaced - full) / replaced
}

// Quantile returns the nearest-rank q-quantile of an ascending-sorted
// slice: the element of 1-based rank ⌈q·n⌉, clamped to [1, n], so at least
// a q share of the elements are at or below it. q·n is snapped to the
// nearest whole number when only float error separates them (0.07·100 =
// 7.000000000000001 is rank 7, not 8). Returns 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := q * float64(n)
	if k := math.Round(r); math.Abs(r-k) <= 1e-9*k {
		r = k
	}
	rank := max(1, min(int(math.Ceil(r)), n))
	return sorted[rank-1]
}

func checkLens(actual, estimated []float64) {
	if len(actual) != len(estimated) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(actual), len(estimated)))
	}
}
