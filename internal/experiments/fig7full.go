package experiments

import (
	"fmt"
	"io"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/report"
	"ampsched/internal/stats"
)

// RunFig7Full is the Fig. 7 comparison at the paper's actual scale: 80
// random pairs, 500M committed instructions per run, 4M-cycle (2 ms)
// context-switch interval. At detailed fidelity this is hours of CPU
// time; the interval and sampled engines bring it down to minutes,
// which is what they exist for. Profiling and the ratio matrix are
// shared with the scaled runner — the estimators the schedulers use
// do not change with run length.
func RunFig7Full(r *Runner, w io.Writer) error {
	opt := r.Opt
	opt.Pairs = 80
	opt.InstrLimit = 500_000_000
	opt.ContextSwitch = amp.ContextSwitchCycles
	if opt.Fidelity == "" || opt.Fidelity == cpu.FidelityDetailed {
		fmt.Fprintln(w, "note: fig7full at detailed fidelity simulates 8e10 instructions"+
			" (hours); pass -fidelity sampled or -fidelity interval for minutes")
	}

	// Derived runner so the full-scale sweep does not evict the scaled
	// sweep other experiments share; the profiling pass (always
	// detailed, always at the scaled sample interval) is reused.
	full := r.Derived(opt)
	s, err := full.Sweep()
	if err != nil {
		return err
	}
	if err := writePairTable(w,
		"Fig. 7 (paper scale): IPC/Watt improvement over the HPE scheme", s, false); err != nil {
		return err
	}

	vsHPE := s.WeightedVsHPE()
	vsRR := s.WeightedVsRR()
	degraded := 0
	for _, v := range vsHPE {
		if v < 0 {
			degraded++
		}
	}
	t := &report.Table{
		Title:   "fig7full summary (Fig. 9 shape at paper scale)",
		Headers: []string{"case", "vs HPE (weighted)", "vs Round Robin (weighted)"},
		Note: fmt.Sprintf("fidelity=%s; paper shape: proposed > HPE > RR on average, "+
			"<10%% of pairs degraded vs HPE (here: %d/%d)",
			fidelityLabel(opt.Fidelity), degraded, len(vsHPE)),
	}
	t.AddRow("5 worst cases", report.Pct(stats.Mean(stats.BottomK(vsHPE, 5))),
		report.Pct(stats.Mean(stats.BottomK(vsRR, 5))))
	t.AddRow(fmt.Sprintf("average of all %d", len(vsHPE)),
		report.Pct(stats.Mean(vsHPE)), report.Pct(stats.Mean(vsRR)))
	t.AddRow("5 best cases", report.Pct(stats.Mean(stats.TopK(vsHPE, 5))),
		report.Pct(stats.Mean(stats.TopK(vsRR, 5))))
	return t.Fprint(w)
}

// fidelityLabel normalizes the empty default for display.
func fidelityLabel(f string) string {
	if f == "" {
		return cpu.FidelityDetailed
	}
	return f
}
