package interval

import (
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/workload"
)

// Engine kinds FuzzRunSpan drives.
const (
	spanInterval      = iota // the interval engine
	spanSampled              // the sampled engine, default schedule
	spanSampledShort         // a 45k-cycle schedule that wraps mid-window
	numSpanEngineKind        // kinds the fuzzer picks from
)

// spanEngine builds one engine of kind over cfg.
func spanEngine(kind uint8, cfg *cpu.Config) cpu.Engine {
	switch kind % numSpanEngineKind {
	case spanSampled:
		e, err := SampledFactory()(cfg)
		if err != nil {
			panic(err)
		}
		return e
	case spanSampledShort:
		s := NewSampled(cfg, 3_000, 45_000)
		s.SetReanchorCycles(1_000)
		return s
	}
	return New(cfg)
}

// maxSpanWindows bounds a fuzzed span: past 2^16 windows, so a span at
// the interval stride crosses the default schedule's 8M-cycle period
// wrap from any position.
const maxSpanWindows = 70_000

// FuzzRunSpan pins the engine span contract the run loop relies on:
// from any bind point, one Run(now, w, n) call leaves the engine's
// Stats and the bound thread's architectural state exactly where n
// calls of Run(now+i·w, w, 1) leave them. The loop hands an engine
// whole spans between scheduler decisions, so spans cross phase
// boundaries, cold-start ramps, warm-ups and period wraps; the
// contract is what keeps them invisible to results.
//
// Two copies of one engine and thread run warm windows as one span
// each, optionally unbind and re-bind the thread (a swap, which the
// sampled engine's warm-up memo resumes in its interval tier), then
// one copy runs n windows in one call and the other one at a time. A
// further span on both must keep them equal, so no hidden schedule
// state may diverge either.
func FuzzRunSpan(f *testing.F) {
	f.Add(uint8(spanInterval), uint8(0), uint64(1), uint16(0), uint32(0), uint32(1), false, false)
	f.Add(uint8(spanInterval), uint8(3), uint64(7), uint16(0), uint32(0), uint32(40), false, false)
	f.Add(uint8(spanInterval), uint8(11), uint64(9), uint16(0), uint32(300), uint32(maxSpanWindows-1), true, false)
	f.Add(uint8(spanInterval), uint8(20), uint64(5), uint16(99), uint32(17), uint32(5_000), false, true)
	f.Add(uint8(spanSampled), uint8(0), uint64(1), uint16(0), uint32(0), uint32(200), false, false)
	f.Add(uint8(spanSampled), uint8(6), uint64(3), uint16(0), uint32(160), uint32(65_537), false, false)
	f.Add(uint8(spanSampled), uint8(14), uint64(2), uint16(0), uint32(62_000), uint32(1_000), true, false)
	f.Add(uint8(spanSampled), uint8(25), uint64(8), uint16(332), uint32(400), uint32(30_000), false, true)
	f.Add(uint8(spanSampledShort), uint8(1), uint64(4), uint16(0), uint32(0), uint32(1_000), false, false)
	f.Add(uint8(spanSampledShort), uint8(9), uint64(6), uint16(0), uint32(30), uint32(maxSpanWindows-1), true, true)
	f.Add(uint8(spanSampledShort), uint8(17), uint64(10), uint16(199), uint32(351), uint32(2_345), false, false)
	f.Fuzz(func(t *testing.T, kind, benchIdx uint8, seed uint64, w uint16, warm, n uint32, rebind, fp bool) {
		window := uint64(DefaultStride)
		if w != 0 {
			window = 1 + uint64(w)%(4*DefaultStride)
		}
		warmN := uint64(warm) % maxSpanWindows
		spanN := 1 + uint64(n)%maxSpanWindows
		cfg := cpu.IntCoreConfig()
		if fp {
			cfg = cpu.FPCoreConfig()
		}
		all := workload.All()
		bench := all[int(benchIdx)%len(all)]

		type side struct {
			e    cpu.Engine
			gen  *workload.Generator
			arch *cpu.ThreadArch
		}
		sides := [2]side{}
		for i := range sides {
			s := &sides[i]
			s.e = spanEngine(kind, cfg)
			s.gen = workload.NewGenerator(bench, seed, 0)
			s.arch = &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
			s.e.Bind(s.gen, s.arch)
			if warmN > 0 {
				s.e.Run(0, window, warmN)
			}
			if rebind {
				s.e.Unbind()
				s.e.Bind(s.gen, s.arch)
			}
		}
		now := warmN * window
		check := func(stage string) {
			t.Helper()
			a, b := sides[0], sides[1]
			if sa, sb := a.e.Stats(), b.e.Stats(); sa != sb {
				t.Fatalf("%s: %s engine, %s, warm %d, window %d, span %d: Stats diverge\n span:    %+v\n windows: %+v",
					stage, a.e.Fidelity(), bench.Name, warmN, window, spanN, sa, sb)
			}
			if !a.arch.Equal(b.arch) {
				t.Fatalf("%s: %s engine, %s, warm %d, window %d, span %d: Arch diverges\n span:    %+v\n windows: %+v",
					stage, a.e.Fidelity(), bench.Name, warmN, window, spanN, *a.arch, *b.arch)
			}
		}
		sides[0].e.Run(now, window, spanN)
		for i := uint64(0); i < spanN; i++ {
			sides[1].e.Run(now+i*window, window, 1)
		}
		check("after the span")
		now += spanN * window
		for i := range sides {
			sides[i].e.Run(now, window, 64)
		}
		check("64 windows later")
	})
}
