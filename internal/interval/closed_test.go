package interval

import (
	"math"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/sched"
	"ampsched/internal/workload"
)

// closedTwins binds gcc on two interval engines whose every phase runs
// at ipc, past the cold-start ramp and carrying frac.
func closedTwins(ipc, frac float64) [2]*Engine {
	var tw [2]*Engine
	for i := range tw {
		e := New(cpu.IntCoreConfig())
		bindGCC(e)
		setPhaseIPC(e, func(int) float64 { return ipc })
		e.sinceBind = rampInstr
		e.fracCommit = frac
		tw[i] = e
	}
	return tw
}

// TestClosedSpanMatchesWindows pins each guard of the closed form: one
// Run(now, w, n) must leave Stats, Arch and the carried fraction bit
// for bit where n one-window calls leave them. A one-ulp error in the
// fraction can wash out at a later round-half-even tie, so the
// fraction is compared right after the span, and the cases say how
// many windows the closed form may take.
func TestClosedSpanMatchesWindows(t *testing.T) {
	const w = DefaultStride
	for _, tc := range []struct {
		name   string
		ipc    float64 // every phase's IPC: c = ipc·128
		frac   float64
		n      func(phaseRem uint64) uint64 // the span, from the first phase's length
		closed func(n uint64) uint64        // windows the closed form takes
		cross  bool                         // the span's last window reaches the phase edge
	}{
		// c = 255.5 + 2⁻⁴⁵ lies above 2⁸ − 1, so 0.75 + c rounds at
		// 2⁸: the loop's sum is inexact.
		{"c just under a power of two", (255.5 + 0x1p-45) / w, 0.75,
			func(uint64) uint64 { return 100 }, func(uint64) uint64 { return 0 }, false},
		// 3·2⁻⁴⁷ is off c = 192's grid (2⁻⁴⁵): the first window rounds
		// the sum up onto it, and the closed form takes the rest.
		{"fraction off the grid", 1.5, 0.75 + 0x3p-47,
			func(uint64) uint64 { return 100 }, func(n uint64) uint64 { return n - 1 }, false},
		// c = 0.75: some windows commit nothing.
		{"c below one", 0.75 / w, 0.5,
			func(uint64) uint64 { return 100 }, func(uint64) uint64 { return 0 }, false},
		// c = 200 from a zero fraction: window ⌈phaseRem/200⌉ is the
		// first to reach the phase edge.
		{"span ending one window before the phase edge", 200.0 / w, 0,
			func(rem uint64) uint64 { return (rem+199)/200 - 1 }, func(n uint64) uint64 { return n }, false},
		{"span ending at the phase edge", 200.0 / w, 0,
			func(rem uint64) uint64 { return (rem + 199) / 200 }, func(n uint64) uint64 { return n - 1 }, true},
	} {
		tw := closedTwins(tc.ipc, tc.frac)
		n := tc.n(tw[0].phaseRem)
		if ends := float64(n) * tc.ipc * w; n <= closedSpanMin || (ends >= float64(tw[0].phaseRem)) != tc.cross {
			t.Fatalf("%s: a span of %d windows does not fit gcc's first phase of %d instructions",
				tc.name, n, tw[0].phaseRem)
		}
		tw[0].Run(0, w, n)
		for i := uint64(0); i < n; i++ {
			tw[1].Run(i*w, w, 1)
		}
		a, b := tw[0], tw[1]
		if sa, sb := a.Stats(), b.Stats(); sa != sb {
			t.Errorf("%s: Stats diverge\n span:    %+v\n windows: %+v", tc.name, sa, sb)
		}
		if !a.arch.Equal(b.arch) {
			t.Errorf("%s: Arch diverges\n span:    %+v\n windows: %+v", tc.name, *a.arch, *b.arch)
		}
		if fa, fb := a.fracCommit, b.fracCommit; math.Float64bits(fa) != math.Float64bits(fb) {
			t.Errorf("%s: carried fraction %x after the span, %x after single windows", tc.name, fa, fb)
		}
		if got, want := a.closedWindows, tc.closed(n); got != want {
			t.Errorf("%s: %d of %d windows in closed form, want %d", tc.name, got, n, want)
		}
	}
}

// countEstimator is a deterministic stand-in for the profiled HPE
// estimators: INT-heavy compositions favor the INT core.
type countEstimator struct{}

func (countEstimator) Name() string { return "composition" }

func (countEstimator) RatioIntOverFP(intPct, fpPct float64) float64 {
	return (10 + intPct) / (10 + 3*fpPct)
}

// TestQuantumSpansRunClosedForm pins the closed form's reach: under
// HPE and Round Robin at the paper's 4 M-cycle quantum, the run loop
// hands the engines quantum-long spans, and all but the ramp windows,
// the phase-crossing windows and one window after each crossing run in
// closed form — on the interval engine and in the sampled engine's
// interval tier.
func TestQuantumSpansRunClosedForm(t *testing.T) {
	for _, fid := range []string{FidelityInterval, FidelitySampled} {
		for _, pol := range []struct {
			name string
			mk   func() amp.MoveScheduler
		}{
			{"hpe", func() amp.MoveScheduler { return sched.NewHPE(sched.DefaultHPEConfig(), countEstimator{}) }},
			{"roundrobin", func() amp.MoveScheduler { return sched.NewRoundRobinInterval(amp.ContextSwitchCycles) }},
		} {
			var ivls []*Engine
			factory := func(cfg *cpu.Config) (cpu.Engine, error) {
				if fid == FidelityInterval {
					e := New(cfg)
					ivls = append(ivls, e)
					return e, nil
				}
				e, err := SampledFactory()(cfg)
				ivls = append(ivls, e.(*Sampled).ivl)
				return e, err
			}
			threads := [2]*amp.Thread{
				amp.NewThread(0, workload.MustByName("gcc"), 41, 0),
				amp.NewThread(1, workload.MustByName("equake"), 42, 1<<40),
			}
			amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				threads, pol.mk(), amp.Config{}, amp.WithEngine(factory)).MustRun(20_000_000)
			for c, e := range ivls {
				windows := e.activeCycles / DefaultStride
				if e.closedWindows*100 < windows*95 {
					t.Errorf("%s/%s core %d: %d of %d interval windows in closed form, want at least 95%%",
						fid, pol.name, c, e.closedWindows, windows)
				}
			}
		}
	}
}
