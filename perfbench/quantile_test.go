package main

import (
	"math"
	"testing"
)

func TestQuantileHarrellDavis(t *testing.T) {
	// Symmetric sample: every quantile estimate of the median is the
	// centre, and the estimator is monotone in q.
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := quantile(append([]float64(nil), v...), 0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("median = %v, want 5", got)
	}
	p10 := quantile(append([]float64(nil), v...), 0.1)
	p90 := quantile(append([]float64(nil), v...), 0.9)
	if !(p10 < 5 && p90 > 5) || math.Abs((p10+p90)/2-5) > 1e-9 {
		t.Fatalf("p10 %v p90 %v not symmetric about 5", p10, p90)
	}
	// Weights sum to one: a constant sample estimates itself.
	if got := quantile([]float64{3, 3, 3, 3}, 0.9); math.Abs(got-3) > 1e-9 {
		t.Fatalf("constant sample p90 = %v", got)
	}
	// Known value: I_0.5(2, 3) = 11/16.
	if got := betaCDF(0.5, 2, 3); math.Abs(got-11.0/16) > 1e-12 {
		t.Fatalf("betaCDF(0.5, 2, 3) = %v", got)
	}
}
