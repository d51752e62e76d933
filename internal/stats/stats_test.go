package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil || math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %g, %v", g, err)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := GeoMean([]float64{0}); err == nil {
		t.Fatal("zero accepted")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max: %g %g", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max not infinities")
	}
}

func TestMode(t *testing.T) {
	// Values cluster at ~1.0 (three) and ~2.0 (two).
	xs := []float64{0.999, 1.001, 1.002, 2.001, 2.003}
	m, err := Mode(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m < 0.99 || m > 1.01 {
		t.Fatalf("Mode = %g, want ~1.0", m)
	}
}

func TestModeTieBreaksLow(t *testing.T) {
	xs := []float64{1.0, 1.0, 3.0, 3.0}
	m, err := Mode(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1.0 {
		t.Fatalf("tie broke to %g, want 1.0", m)
	}
}

func TestModeErrors(t *testing.T) {
	if _, err := Mode(nil, 0.1); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := Mode([]float64{1}, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestModeRetainsSubStepPrecision(t *testing.T) {
	xs := []float64{1.21, 1.23, 1.25}
	m, err := Mode(xs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1.23) > 1e-12 {
		t.Fatalf("Mode = %g, want bin mean 1.23", m)
	}
}

func TestTopBottomK(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := BottomK(xs, 2); got[0] != 1 || got[1] != 2 {
		t.Fatalf("BottomK = %v", got)
	}
	if got := TopK(xs, 2); got[0] != 4 || got[1] != 5 {
		t.Fatalf("TopK = %v", got)
	}
	if got := TopK(xs, 10); len(got) != 5 {
		t.Fatalf("TopK clamp failed: %v", got)
	}
	// Original unchanged.
	if xs[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestSortedCopy(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := SortedCopy(xs)
	if s[0] != 1 || s[2] != 3 || xs[0] != 3 {
		t.Fatal("SortedCopy wrong or mutating")
	}
}

func TestQuickGeoMeanLEMean(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1
		}
		g, err := GeoMean(xs)
		if err != nil {
			return false
		}
		return g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickModeIsWithinRange(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 10
		}
		m, err := Mode(xs, 0.5)
		if err != nil {
			return false
		}
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i%10) + 5 // mean 9.5, low variance
	}
	lo, hi := BootstrapCI(xs, 0.95, 2000, 1)
	m := Mean(xs)
	if lo > m || hi < m {
		t.Fatalf("CI [%g, %g] excludes the sample mean %g", lo, hi, m)
	}
	if hi-lo <= 0 || hi-lo > 2 {
		t.Fatalf("CI width %g implausible for this data", hi-lo)
	}
	// Wider confidence -> wider interval.
	lo99, hi99 := BootstrapCI(xs, 0.99, 2000, 1)
	if hi99-lo99 < hi-lo {
		t.Fatalf("99%% CI narrower than 95%%: %g vs %g", hi99-lo99, hi-lo)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	lo, hi := BootstrapCI([]float64{42}, 0.95, 2000, 1)
	if lo != 42 || hi != 42 {
		t.Fatalf("single-sample CI [%g, %g]", lo, hi)
	}
	lo, hi = BootstrapCI(nil, 0.95, 2000, 1)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty CI [%g, %g]", lo, hi)
	}
	lo, hi = BootstrapCI([]float64{1, 2, 3}, 1.5, 2000, 1)
	if lo != hi {
		t.Fatal("invalid confidence not degenerate")
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 9, 4}
	lo1, hi1 := BootstrapCI(xs, 0.9, 500, 7)
	lo2, hi2 := BootstrapCI(xs, 0.9, 500, 7)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("bootstrap not deterministic under a fixed seed")
	}
}
