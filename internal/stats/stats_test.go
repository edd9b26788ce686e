package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty is 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Error("mean of 2,4,6")
	}
	if Mean([]float64{-1, 1}) != 0 {
		t.Error("mean with negatives")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("stddev of <2 samples is 0")
	}
	// Known value: {2,4,4,4,5,5,7,9} has sample stddev ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.1381) > 1e-3 {
		t.Errorf("stddev = %v", got)
	}
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("constant sample has zero stddev")
	}
}

func TestTCritical(t *testing.T) {
	if !math.IsInf(TCritical95(0), 1) {
		t.Error("df=0 must be infinite")
	}
	if math.Abs(TCritical95(4)-2.776) > 1e-9 {
		t.Error("df=4 critical value")
	}
	if TCritical95(1000) != 1.960 {
		t.Error("large df uses normal value")
	}
	// Critical values decrease with df.
	for df := 2; df < 40; df++ {
		if TCritical95(df) > TCritical95(df-1) {
			t.Fatalf("t-values must decrease with df at %d", df)
		}
	}
}

func TestSummarize(t *testing.T) {
	// Five repetitions, as in the paper's Figure 8 methodology.
	xs := []float64{10, 12, 11, 9, 13}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 11 {
		t.Errorf("summary: %+v", s)
	}
	// CI = t(4) * sd/sqrt(5) = 2.776 * 1.5811/2.2361 ≈ 1.963
	if math.Abs(s.CI95-1.963) > 0.01 {
		t.Errorf("CI95 = %v", s.CI95)
	}
	if s.String() == "" {
		t.Error("String")
	}
}

func TestSummarizeSmall(t *testing.T) {
	s := Summarize([]float64{7})
	if s.CI95 != 0 || s.Mean != 7 {
		t.Errorf("single sample: %+v", s)
	}
	s = Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Errorf("empty: %+v", s)
	}
}

// Property: the CI of a constant sample is zero and contains the mean; CI
// shrinks as n grows for iid draws (statistically, via fixed seed).
func TestQuickCIProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(c float64, n uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e300 {
			return true // summing huge constants legitimately overflows
		}
		k := int(n)%20 + 2
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = c
		}
		s := Summarize(xs)
		return s.CI95 == 0 && s.Mean == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
	wide := make([]float64, 5)
	narrow := make([]float64, 50)
	src := rand.New(rand.NewSource(3))
	for i := range narrow {
		v := src.NormFloat64()
		if i < 5 {
			wide[i] = v
		}
		narrow[i] = v
	}
	if Summarize(narrow).CI95 >= Summarize(wide).CI95 {
		t.Error("more samples should narrow the interval")
	}
}
