package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(123)
	b := New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 draws collided between different seeds", same)
	}
}

func TestSeedResets(t *testing.T) {
	s := New(7)
	first := s.Uint64()
	s.Uint64()
	s.Seed(7)
	if got := s.Uint64(); got != first {
		t.Fatalf("Seed did not reset stream: got %d want %d", got, first)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(13)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never drawn in 10000 tries", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(15)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) fired at rate %g", p)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(17)
	for _, mean := range []float64{2, 5, 12} {
		sum := 0.0
		const n = 50000
		for i := 0; i < n; i++ {
			v := s.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric returned %d < 1", v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Geometric(%g) sample mean %g", mean, got)
		}
	}
}

func TestGeometricDegenerate(t *testing.T) {
	s := New(19)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(0.5); v != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", v)
		}
	}
	if s.Geometric(1) != 1 || s.Uint64() != New(19).Uint64() {
		t.Fatal("Geometric with mean <= 1 drew from the stream")
	}
}

// geometricRef is the inverse-transform draw for a mean > 1 written
// out in full, with the logarithm of the mean taken on every call.
func geometricRef(s *Source, mean float64) int {
	p := 1.0 / mean
	u := s.Float64()
	if u <= 0 {
		u = 1e-18
	}
	n := 1 + int(math.Log(u)/math.Log(1-p))
	return min(max(n, 1), 1<<20)
}

// TestGeometricLogMatchesGeometric: fed math.Log(1-1/mean) once,
// GeometricLog returns what Geometric(mean) and the written-out draw
// return, call for call, and all three streams stay in step.
func TestGeometricLogMatchesGeometric(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		a, b, ref := New(seed), New(seed), New(seed)
		for mean := 1.01; mean <= 64; mean *= 1.07 {
			logq := math.Log(1 - 1/mean)
			for i := 0; i < 200; i++ {
				want := geometricRef(ref, mean)
				if got := a.Geometric(mean); got != want {
					t.Fatalf("seed %d mean %g draw %d: Geometric = %d, reference %d", seed, mean, i, got, want)
				}
				if got := b.GeometricLog(logq); got != want {
					t.Fatalf("seed %d mean %g draw %d: GeometricLog = %d, reference %d", seed, mean, i, got, want)
				}
			}
		}
		if next := ref.Uint64(); a.Uint64() != next || b.Uint64() != next {
			t.Fatalf("seed %d: streams fell out of step", seed)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	child := parent.Split()
	// The child stream should not replicate the parent's next values.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 collisions between parent and split child", same)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{1, 2, 5, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	s := New(29)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSameSeedSameStream(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(draws); i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
