package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"ampsched/internal/amp"
)

func result(n0, n1 string, ipcw0, ipcw1 float64) amp.Result {
	var r amp.Result
	r.Threads[0] = amp.ThreadResult{Name: n0, IPCPerWatt: ipcw0}
	r.Threads[1] = amp.ThreadResult{Name: n1, IPCPerWatt: ipcw1}
	return r
}

func TestCompareIdentity(t *testing.T) {
	a := result("x", "y", 0.2, 0.3)
	pc, err := Compare(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if pc.WeightedPct != 0 || pc.GeoPct != 0 {
		t.Fatalf("identity comparison nonzero: %+v", pc)
	}
	if pc.Ratios[0] != 1 || pc.Ratios[1] != 1 {
		t.Fatalf("ratios: %v", pc.Ratios)
	}
}

func TestCompareKnown(t *testing.T) {
	scheme := result("x", "y", 0.22, 0.30)
	ref := result("x", "y", 0.20, 0.30)
	pc, err := Compare(scheme, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc.Ratios[0]-1.1) > 1e-12 || pc.Ratios[1] != 1 {
		t.Fatalf("ratios: %v", pc.Ratios)
	}
	if math.Abs(pc.WeightedPct-5) > 1e-9 {
		t.Fatalf("weighted = %g, want 5", pc.WeightedPct)
	}
	wantGeo := 100 * (math.Sqrt(1.1) - 1)
	if math.Abs(pc.GeoPct-wantGeo) > 1e-9 {
		t.Fatalf("geo = %g, want %g", pc.GeoPct, wantGeo)
	}
	if pc.Bench != [2]string{"x", "y"} {
		t.Fatalf("bench names: %v", pc.Bench)
	}
}

func TestCompareMismatchedNames(t *testing.T) {
	if _, err := Compare(result("x", "y", 1, 1), result("x", "z", 1, 1)); err == nil {
		t.Fatal("mismatched names accepted")
	}
}

func TestCompareNonPositive(t *testing.T) {
	if _, err := Compare(result("x", "y", 0, 1), result("x", "y", 1, 1)); err == nil {
		t.Fatal("zero IPC/Watt accepted")
	}
	if _, err := Compare(result("x", "y", 1, 1), result("x", "y", 1, -1)); err == nil {
		t.Fatal("negative IPC/Watt accepted")
	}
}

func TestGeoPenalizesImbalance(t *testing.T) {
	// Same weighted speedup, different balance: geometric must favor
	// the balanced outcome (the paper's fairness rationale).
	balanced := Compare2(t, 1.1, 1.1)
	skewed := Compare2(t, 1.6, 0.6)
	if balanced.WeightedPct != skewed.WeightedPct {
		t.Fatal("test setup: weighted speedups differ")
	}
	if balanced.GeoPct <= skewed.GeoPct {
		t.Fatalf("geometric did not penalize imbalance: %g vs %g", balanced.GeoPct, skewed.GeoPct)
	}
}

// Compare2 builds a comparison with the given per-thread ratios.
func Compare2(t *testing.T, r0, r1 float64) PairComparison {
	t.Helper()
	pc, err := Compare(result("a", "b", r0, r1), result("a", "b", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func TestQuickGeoLEWeighted(t *testing.T) {
	f := func(a, b uint16) bool {
		r0 := float64(a)/1000 + 0.01
		r1 := float64(b)/1000 + 0.01
		pc, err := Compare(result("a", "b", r0, r1), result("a", "b", 1, 1))
		if err != nil {
			return false
		}
		return pc.GeoPct <= pc.WeightedPct+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
