package fault

import (
	"bytes"
	"math"
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/monitor"
)

// FuzzFaultPlan proves the determinism contract: two plans built from
// the same (seed, rates) tuple produce bit-identical fault sequences
// across every subsystem — swap outcomes and monitor sample streams —
// regardless of the rate values.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), 0.1, 0.2, 5.0, 0.3, 0.1)
	f.Add(uint64(42), 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(1<<60), 1.0, 1.0, 100.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed uint64, drop, stale, noise, fail, delay float64) {
		cfg := Config{
			Seed:            seed,
			SampleDropRate:  clamp01(drop),
			SampleStaleRate: clamp01(stale),
			SampleNoisePct:  clamp01(noise/100) * 100,
			SwapFailRate:    clamp01(fail),
			SwapDelayRate:   clamp01(delay),
		}
		runOnce := func() ([]byte, Stats) {
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("clamped config rejected: %v", err)
			}
			var log bytes.Buffer
			var arch cpu.ThreadArch
			obs := p.Observer(monitor.NewWindowTracker(100), 3)
			obs.Reset(&arch)
			for i := 0; i < 200; i++ {
				arch.Committed += 100
				if i%2 == 0 {
					arch.CommittedByClass[isa.IntALU] += 100
				} else {
					arch.CommittedByClass[isa.FPALU] += 100
				}
				if s, ok := obs.Observe(&arch); ok {
					fmtSample(&log, s)
				}
				out := p.SwapOutcome(uint64(i) * 997)
				log.WriteByte(boolByte(out.Fail))
				fmtFloat(&log, out.OverheadFactor)
			}
			return log.Bytes(), p.Stats()
		}
		l1, s1 := runOnce()
		l2, s2 := runOnce()
		if !bytes.Equal(l1, l2) {
			t.Fatalf("same-seed plans diverge (seed=%d cfg=%+v)", seed, cfg)
		}
		if s1 != s2 {
			t.Fatalf("same-seed stats diverge: %+v vs %+v", s1, s2)
		}
	})
}

func clamp01(v float64) float64 {
	if !(v >= 0) { // NaN lands here too
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func fmtSample(buf *bytes.Buffer, s monitor.Sample) {
	fmtFloat(buf, float64(s.WindowEnd))
	fmtFloat(buf, s.IntPct)
	fmtFloat(buf, s.FPPct)
}

func fmtFloat(buf *bytes.Buffer, v float64) {
	var b [8]byte
	u := math.Float64bits(v)
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	buf.Write(b[:])
}
