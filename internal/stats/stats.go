// Package stats provides the small statistical toolkit the evaluation
// needs: means, standard deviations, and Student-t 95% confidence
// intervals over multi-seed experiment repetitions, matching the paper's
// methodology ("each point in this graph represents the mean of five
// 30-minute experiments with 95% confidence intervals").
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator). It
// returns 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// t95 holds two-sided 95% Student-t critical values indexed by degrees of
// freedom (1-based). Beyond the table the normal value 1.960 applies.
var t95 = []float64{
	0,      // unused (df=0)
	12.706, // df=1
	4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df < len(t95):
		return t95[df]
	default:
		return 1.960
	}
}

// Summary describes a sample with its 95% confidence half-interval.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	if s.N >= 2 {
		s.CI95 = TCritical95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", s.Mean, s.CI95, s.N)
}
