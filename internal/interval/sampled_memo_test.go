package interval

import (
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/workload"
)

// TestSampledWarmupMemoized pins the per-(thread, core) warm-up memo:
// the first bind of a thread runs a detailed warm-up window, a
// re-bind of the same thread after a completed warm-up resumes in the
// interval tier, and the memo is invalidated by Reconfigure, scoped
// per thread, and not set by an interrupted warm-up.
func TestSampledWarmupMemoized(t *testing.T) {
	cfg := cpu.IntCoreConfig()
	s := NewSampled(cfg, 1_000, 100_000)
	bench := workload.MustByName("gcc")
	genA := workload.NewGenerator(bench, 1, 0)
	archA := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}

	s.Bind(genA, archA)
	if !s.det.Bound() || s.pos != 0 {
		t.Fatal("first bind must start a detailed warm-up")
	}
	s.Run(0, 5_000, 1) // completes the warm-up, crosses into interval
	s.Unbind()

	s.Bind(genA, archA)
	if s.pos != s.detailCycles || !s.ivl.Bound() {
		t.Fatalf("re-bind of a warmed thread must skip the warm-up (pos %d, ivl bound %v)",
			s.pos, s.ivl.Bound())
	}
	s.Run(5_000, 1_000, 1)
	s.Unbind()

	// A different thread on the same core still warms up.
	genB := workload.NewGenerator(bench, 2, 1<<20)
	archB := &cpu.ThreadArch{CodeBase: 1<<36 + 1<<20, CodeSize: bench.EffectiveCodeFootprint()}
	s.Bind(genB, archB)
	if s.pos != 0 || !s.det.Bound() {
		t.Fatal("unwarmed thread must run a warm-up")
	}
	// An interrupted warm-up must not memoize.
	s.Run(0, 10, 1)
	s.Unbind()
	s.Bind(genB, archB)
	if s.pos != 0 || !s.det.Bound() {
		t.Fatal("interrupted warm-up must not count as warmed")
	}
	s.Run(0, 5_000, 1)
	s.Unbind()

	// The scheduled period-wrap warm-up is unaffected by the memo: a
	// warmed thread crossing a period boundary re-enters the detailed
	// tier.
	s.Bind(genA, archA)
	s.Run(0, s.periodCycles-s.pos+10, 1)
	if !s.det.Bound() {
		t.Fatal("period wrap must re-enter the detailed tier even for a warmed thread")
	}
	s.Unbind()

	// Reconfigure invalidates every memoized warm-up.
	if err := s.Reconfigure(cfg.Units); err != nil {
		t.Fatal(err)
	}
	s.Bind(genA, archA)
	if s.pos != 0 || !s.det.Bound() {
		t.Fatal("Reconfigure must invalidate the warm-up memo")
	}
	s.Unbind()
}
