// Package branch implements the branch direction predictor of the
// core model.
//
// The predictor is gshare (McFarling): a table of 2-bit
// saturating counters indexed by the XOR of the branch PC and a global
// history register. Workload phases control the achievable accuracy
// through per-site outcome biases (see internal/workload), so phases
// with low BranchPredictability produce real misprediction stalls in
// the pipeline model.
package branch

// Stats are monotonic predictor counters.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
}

// MispredictRate returns mispredicts/lookups, or 0 if unused.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Sub returns s - o component-wise.
func (s Stats) Sub(o Stats) Stats {
	return Stats{Lookups: s.Lookups - o.Lookups, Mispredicts: s.Mispredicts - o.Mispredicts}
}

// GShare is a global-history XOR-indexed 2-bit counter predictor.
type GShare struct {
	historyBits uint
	history     uint64
	mask        uint64
	table       []uint8
	stats       Stats
}

// NewGShare returns a gshare predictor with 2^historyBits counters.
func NewGShare(historyBits uint) *GShare {
	if historyBits == 0 || historyBits > 24 {
		panic("branch: historyBits must be in [1, 24]")
	}
	g := &GShare{
		historyBits: historyBits,
		mask:        (1 << historyBits) - 1,
		table:       make([]uint8, 1<<historyBits),
	}
	g.Reset()
	return g
}

func (g *GShare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *GShare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the predictor with the branch's actual outcome. It
// counts a lookup+train pair, updates the counter and shifts the
// outcome into the global history.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.stats.Lookups++
	pred := g.table[i] >= 2
	if pred != taken {
		g.stats.Mispredicts++
	}
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else if g.table[i] > 0 {
		g.table[i]--
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// Reset clears the tables (used when a core is reinitialized; a thread
// swap does not reset — the migrated thread retrains on the
// destination core's tables, a real migration cost). Counters start
// weakly not-taken and the history clears; statistics are preserved
// (they are monotonic).
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = 1
	}
	g.history = 0
}

// Stats returns the monotonic lookup/mispredict counters.
func (g *GShare) Stats() Stats { return g.stats }

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
