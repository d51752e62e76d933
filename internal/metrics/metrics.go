// Package metrics computes the evaluation metrics of §VII: weighted
// and geometric IPC/Watt speedups of one scheduling scheme over a
// reference scheme for a two-thread workload.
//
// For a pair run under scheme A and reference B, each thread's ratio
// is r_i = IPCW_i(A) / IPCW_i(B). The weighted speedup is the
// arithmetic mean of the ratios; the geometric speedup is their
// geometric mean, which penalizes schemes that help one thread at the
// other's expense (the paper's fairness argument).
package metrics

import (
	"fmt"
	"math"

	"ampsched/internal/amp"
)

// PairComparison is the outcome of comparing one scheme against a
// reference on one two-benchmark combination.
type PairComparison struct {
	Bench [2]string
	// Ratios are the per-thread IPC/Watt ratios scheme/reference.
	//ampvet:unit dimensionless
	Ratios [2]float64
	// WeightedPct is 100*(mean(ratios) - 1).
	//ampvet:unit dimensionless
	WeightedPct float64
	// GeoPct is 100*(sqrt(r0*r1) - 1).
	//ampvet:unit dimensionless
	GeoPct float64
}

// Compare derives the paper's improvement metrics from two run
// results over the same workload pair. Thread identity is by index:
// result Threads[i] must be the same benchmark in both runs.
func Compare(scheme, reference amp.Result) (PairComparison, error) {
	var pc PairComparison
	for i := 0; i < 2; i++ {
		if scheme.Threads[i].Name != reference.Threads[i].Name {
			return pc, fmt.Errorf("metrics: thread %d mismatch: %q vs %q",
				i, scheme.Threads[i].Name, reference.Threads[i].Name)
		}
		a := scheme.Threads[i].IPCPerWatt
		b := reference.Threads[i].IPCPerWatt
		if a <= 0 || b <= 0 {
			return pc, fmt.Errorf("metrics: non-positive IPC/Watt for thread %d (%g, %g)", i, a, b)
		}
		pc.Bench[i] = scheme.Threads[i].Name
		pc.Ratios[i] = a / b
	}
	pc.WeightedPct = 100 * ((pc.Ratios[0]+pc.Ratios[1])/2 - 1)
	pc.GeoPct = 100 * (math.Sqrt(pc.Ratios[0]*pc.Ratios[1]) - 1)
	return pc, nil
}
