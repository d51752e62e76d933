package fault

import (
	"math"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/monitor"
)

func TestValidateRejectsBadRates(t *testing.T) {
	bad := []Config{
		{SampleDropRate: -0.1},
		{SampleStaleRate: 1.5},
		{SwapFailRate: 2},
		{SwapDelayRate: -1},
		{SampleNoisePct: 101},
		{SampleNoisePct: -5},
		{SwapDelayFactor: -2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Uniform(0.3, 42)); err != nil {
		t.Fatalf("valid uniform config rejected: %v", err)
	}
}

func TestUniformEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config claims to inject faults")
	}
	if !Uniform(0.01, 1).Enabled() {
		t.Fatal("uniform config claims to be a no-op")
	}
	if Uniform(0, 1).Enabled() {
		t.Fatal("rate-0 uniform config claims to inject faults")
	}
}

// drainSwaps collects n outcomes from a fresh plan with cfg.
func drainSwaps(cfg Config, n int) []amp.SwapOutcome {
	p := MustNew(cfg)
	out := make([]amp.SwapOutcome, n)
	for i := range out {
		out[i] = p.SwapOutcome(uint64(i) * 1000)
	}
	return out
}

func TestSwapOutcomeDeterministic(t *testing.T) {
	cfg := Uniform(0.25, 99)
	a := drainSwaps(cfg, 500)
	b := drainSwaps(cfg, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSwapOutcomeRates(t *testing.T) {
	cfg := Config{Seed: 7, SwapFailRate: 0.3, SwapDelayRate: 0.5}
	p := MustNew(cfg)
	const n = 20_000
	for i := 0; i < n; i++ {
		p.SwapOutcome(uint64(i))
	}
	st := p.Stats()
	failFrac := float64(st.SwapsFailed) / n
	if math.Abs(failFrac-0.3) > 0.02 {
		t.Fatalf("fail rate %.3f far from 0.3", failFrac)
	}
	// Delay fires on the surviving 70% at rate 0.5 -> ~0.35 overall.
	delayFrac := float64(st.SwapsDelayed) / n
	if math.Abs(delayFrac-0.35) > 0.02 {
		t.Fatalf("delay rate %.3f far from 0.35", delayFrac)
	}
	if got := MustNew(cfg).Config().SwapDelayFactor; got != DefaultSwapDelayFactor {
		t.Fatalf("delay factor default not applied: %g", got)
	}
}

// stepArch advances a thread-arch by one committed window of pure INT.
func stepArch(arch *cpu.ThreadArch, n uint64) {
	arch.Committed += n
	arch.CommittedByClass[isa.IntALU] += n
}

func TestFaultyObserverDropsAndNoises(t *testing.T) {
	cfg := Config{Seed: 5, SampleDropRate: 0.3, SampleNoisePct: 10}
	p := MustNew(cfg)
	var arch cpu.ThreadArch
	obs := p.Observer(monitor.NewWindowTracker(1000), 0)
	obs.Reset(&arch)

	delivered, windows := 0, 2000
	for i := 0; i < windows; i++ {
		stepArch(&arch, 1000)
		if s, ok := obs.Observe(&arch); ok {
			delivered++
			// Ground truth is 100% INT; noise keeps it within 10pp.
			if s.IntPct < 90 || s.IntPct > 100 {
				t.Fatalf("window %d IntPct %.1f outside noise envelope", i, s.IntPct)
			}
		}
	}
	st := p.Stats()
	if st.SamplesDropped == 0 {
		t.Fatal("no samples dropped at rate 0.3")
	}
	if delivered+int(st.SamplesDropped) != windows {
		t.Fatalf("delivered %d + dropped %d != windows %d", delivered, st.SamplesDropped, windows)
	}
	frac := float64(st.SamplesDropped) / float64(windows)
	if math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("drop rate %.3f far from 0.3", frac)
	}
	if st.SamplesNoised == 0 {
		t.Fatal("no samples noised")
	}
}

func TestFaultyObserverStaleServesPrevious(t *testing.T) {
	cfg := Config{Seed: 11, SampleStaleRate: 1} // every window stale
	p := MustNew(cfg)
	var arch cpu.ThreadArch
	obs := p.Observer(monitor.NewWindowTracker(100), 0)
	obs.Reset(&arch)

	// First window: 100% INT. No previous sample exists, so it is
	// delivered as-is despite the stale draw.
	stepArch(&arch, 100)
	first, ok := obs.Observe(&arch)
	if !ok || first.IntPct != 100 {
		t.Fatalf("first window: %+v ok=%v", first, ok)
	}
	// Second window: 100% FP ground truth, but the stale fault must
	// serve the previous (INT) composition with an advanced timestamp.
	arch.Committed += 100
	arch.CommittedByClass[isa.FPALU] += 100
	s, ok := obs.Observe(&arch)
	if !ok {
		t.Fatal("stale window not delivered")
	}
	if s.IntPct != 100 || s.FPPct != 0 {
		t.Fatalf("stale sample not the previous one: %+v", s)
	}
	if s.WindowEnd != arch.Committed {
		t.Fatalf("stale sample timestamp not advanced: %d != %d", s.WindowEnd, arch.Committed)
	}
	if p.Stats().SamplesStale == 0 {
		t.Fatal("stale counter not advanced")
	}
	if l, have := obs.Latest(); !have || l != s {
		t.Fatalf("Latest %+v/%v disagrees with delivered %+v", l, have, s)
	}
}

func TestFaultyObserverZeroConfigTransparent(t *testing.T) {
	p := MustNew(Config{Seed: 3})
	var archA, archB cpu.ThreadArch
	plain := monitor.NewWindowTracker(500)
	wrapped := p.Observer(monitor.NewWindowTracker(500), 1)
	plain.Reset(&archA)
	wrapped.Reset(&archB)
	for i := 0; i < 50; i++ {
		stepArch(&archA, 137)
		stepArch(&archB, 137)
		sa, oka := plain.Observe(&archA)
		sb, okb := wrapped.Observe(&archB)
		if oka != okb || sa != sb {
			t.Fatalf("step %d: zero-config wrapper altered samples: %+v/%v vs %+v/%v",
				i, sa, oka, sb, okb)
		}
	}
	if p.Stats() != (Stats{}) {
		t.Fatalf("zero-config plan injected faults: %+v", p.Stats())
	}
}

func TestObserverTagsIndependent(t *testing.T) {
	cfg := Config{Seed: 21, SampleDropRate: 0.5}
	p := MustNew(cfg)
	var archA, archB cpu.ThreadArch
	a := p.Observer(monitor.NewWindowTracker(100), 0)
	b := p.Observer(monitor.NewWindowTracker(100), 1)
	a.Reset(&archA)
	b.Reset(&archB)
	same := 0
	const windows = 200
	for i := 0; i < windows; i++ {
		stepArch(&archA, 100)
		stepArch(&archB, 100)
		_, oka := a.Observe(&archA)
		_, okb := b.Observe(&archB)
		if oka == okb {
			same++
		}
	}
	if same == windows {
		t.Fatal("differently tagged observers draw identical fault streams")
	}
}
