package branch

import (
	"testing"
	"testing/quick"

	"ampsched/internal/rng"
)

func TestGShareLearnsBias(t *testing.T) {
	g := NewGShare(12)
	pc := uint64(0x400100)
	for i := 0; i < 100; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Fatal("did not learn always-taken branch")
	}
	st := g.Stats()
	if st.Lookups != 100 {
		t.Fatalf("lookups = %d", st.Lookups)
	}
	// Warmup cost: the global history changes the index for the first
	// ~historyBits updates, each landing on an untrained counter.
	if st.Mispredicts > 12+4 {
		t.Fatalf("mispredicts = %d on a trivially biased branch", st.Mispredicts)
	}
}

func TestGShareAccuracyTracksBias(t *testing.T) {
	r := rng.New(1)
	for _, bias := range []float64{0.99, 0.85, 0.6} {
		g := NewGShare(12)
		pc := uint64(0x400200)
		const n = 20000
		for i := 0; i < n; i++ {
			g.Update(pc, r.Bool(bias))
		}
		rate := g.Stats().MispredictRate()
		// A 2-bit counter on an i.i.d. biased stream mispredicts at
		// least (1-bias) and at most ~2*(1-bias)*bias + slack.
		lo := (1 - bias) * 0.7
		hi := 2*(1-bias)*bias + 0.08
		if rate < lo || rate > hi {
			t.Errorf("bias %.2f: mispredict rate %.3f outside [%.3f, %.3f]", bias, rate, lo, hi)
		}
	}
}

func TestGShareAlternatingPattern(t *testing.T) {
	// Global history lets gshare learn a strict alternation almost
	// perfectly after warmup.
	g := NewGShare(12)
	pc := uint64(0x400300)
	for i := 0; i < 1000; i++ {
		g.Update(pc, i%2 == 0)
	}
	before := g.Stats().Mispredicts
	for i := 1000; i < 2000; i++ {
		g.Update(pc, i%2 == 0)
	}
	after := g.Stats().Mispredicts
	if after-before > 20 {
		t.Fatalf("gshare failed to learn alternation: %d mispredicts in steady state", after-before)
	}
}

func TestGShareReset(t *testing.T) {
	g := NewGShare(10)
	for i := 0; i < 50; i++ {
		g.Update(0x100, true)
	}
	st := g.Stats()
	g.Reset()
	if g.Stats() != st {
		t.Fatal("Reset cleared statistics")
	}
	if g.Predict(0x100) {
		t.Fatal("Reset did not clear counters to weakly not-taken")
	}
}

func TestGShareSizePanics(t *testing.T) {
	for _, bits := range []uint{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGShare(%d) did not panic", bits)
				}
			}()
			NewGShare(bits)
		}()
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Lookups: 10, Mispredicts: 3}
	b := Stats{Lookups: 4, Mispredicts: 1}
	if got := a.Sub(b); got != (Stats{Lookups: 6, Mispredicts: 2}) {
		t.Fatalf("Sub = %+v", got)
	}
}

func TestMispredictRateEmpty(t *testing.T) {
	if (Stats{}).MispredictRate() != 0 {
		t.Fatal("empty rate not 0")
	}
}

func TestQuickMispredictsBounded(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		g := NewGShare(8)
		r := rng.New(seed)
		for i := 0; i < int(n); i++ {
			g.Update(r.Uint64n(1<<16), r.Bool(0.5))
		}
		st := g.Stats()
		return st.Mispredicts <= st.Lookups && st.Lookups == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
