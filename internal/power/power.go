// Package power converts the core model's activity ledger into energy
// and average power, standing in for Wattch + CACTI (§IV).
//
// The model follows Wattch's structure: every microarchitectural event
// costs a fixed dynamic energy derived from the size of the structure
// it touches (CACTI-style size scaling), and every structure leaks a
// static power proportional to its size whether the core is active or
// frozen. Absolute joules are uncalibrated — the paper's metric is
// IPC/Watt *ratios*, which depend only on how energy scales with
// activity and structure size, and that scaling is preserved.
package power

import (
	"fmt"
	"math"

	"ampsched/internal/cache"
	"ampsched/internal/cpu"
)

// EnergyParams are the per-event dynamic energies (nanojoules) and
// per-structure static powers (watts) for one core. Use DefaultParams
// to derive them from a core configuration.
type EnergyParams struct {
	// Dynamic energy per event, nJ.
	Fetch      float64 // per fetch group (IL1 array access is separate)
	BPred      float64
	Rename     float64
	ROBWrite   float64
	ROBRead    float64
	IntISQOp   float64 // insertion or wakeup/select
	FPISQOp    float64
	IntRegRead float64
	IntRegWr   float64
	FPRegRead  float64
	FPRegWr    float64
	LSQOp      float64
	UnitOp     [cpu.NumUnitKinds]float64

	L1Access  float64
	L2Access  float64
	MemAccess float64

	// ClockPerCycle is the clock-tree energy per active cycle, nJ.
	ClockPerCycle float64

	// StaticWatts is the total leakage of the core (applies to active
	// and stalled cycles alike).
	//ampvet:unit watts
	StaticWatts float64
}

// sizeScale returns sqrt(n/ref): CACTI-like sub-linear growth of
// per-access energy with structure size.
func sizeScale(n, ref int) float64 {
	if n <= 0 || ref <= 0 {
		return 1
	}
	return math.Sqrt(float64(n) / float64(ref))
}

// unitEnergy is the per-operation energy of a strong (pipelined,
// full-performance) unit of each kind, nJ.
var unitEnergy = [cpu.NumUnitKinds]float64{
	cpu.UIntALU:  0.06,
	cpu.UIntMul:  0.22,
	cpu.UIntDiv:  0.45,
	cpu.UFPALU:   0.18,
	cpu.UFPMul:   0.26,
	cpu.UFPDiv:   0.55,
	cpu.UMemPort: 0.06,
}

// unitStaticWatts is the leakage of one strong unit instance of each
// kind, watts.
var unitStaticWatts = [cpu.NumUnitKinds]float64{
	cpu.UIntALU:  0.08,
	cpu.UIntMul:  0.12,
	cpu.UIntDiv:  0.10,
	cpu.UFPALU:   0.16,
	cpu.UFPMul:   0.18,
	cpu.UFPDiv:   0.16,
	cpu.UMemPort: 0.05,
}

// weakUnitFactor discounts energy and leakage of non-pipelined (weak,
// smaller) unit implementations relative to the strong ones.
const weakUnitFactor = 0.55

// DefaultParams derives the energy parameters for cfg, scaling each
// structure's per-access energy and leakage by its configured size.
func DefaultParams(cfg *cpu.Config) *EnergyParams {
	p := &EnergyParams{
		Fetch:      0.04,
		BPred:      0.02 * sizeScale(1<<cfg.BranchHistoryBits, 4096),
		Rename:     0.03,
		ROBWrite:   0.04 * sizeScale(cfg.ROBSize, 64),
		ROBRead:    0.03 * sizeScale(cfg.ROBSize, 64),
		IntISQOp:   0.04 * sizeScale(cfg.IntISQ, 16),
		FPISQOp:    0.04 * sizeScale(cfg.FPISQ, 16),
		IntRegRead: 0.015 * sizeScale(cfg.IntRegs, 64),
		IntRegWr:   0.02 * sizeScale(cfg.IntRegs, 64),
		FPRegRead:  0.015 * sizeScale(cfg.FPRegs, 64),
		FPRegWr:    0.02 * sizeScale(cfg.FPRegs, 64),
		LSQOp:      0.04 * sizeScale(cfg.LSQLoads+cfg.LSQStores, 32),

		L1Access:  0.10 * sizeScale(cfg.Caches.L1D.SizeBytes, 4<<10),
		L2Access:  0.50 * sizeScale(cfg.Caches.L2.SizeBytes, 128<<10),
		MemAccess: 4.0,

		ClockPerCycle: 0.25,
	}

	static := 0.60 // base: fetch/decode/misc logic
	static += 0.10 * sizeScale(cfg.ROBSize, 64)
	static += 0.06 * sizeScale(cfg.IntISQ, 16)
	static += 0.06 * sizeScale(cfg.FPISQ, 16)
	static += 0.08 * sizeScale(cfg.IntRegs, 64)
	static += 0.08 * sizeScale(cfg.FPRegs, 64)
	static += 0.05 * sizeScale(cfg.LSQLoads+cfg.LSQStores, 32)
	static += 0.15 * sizeScale(cfg.Caches.L1I.SizeBytes+cfg.Caches.L1D.SizeBytes, 8<<10)
	static += 0.45 * sizeScale(cfg.Caches.L2.SizeBytes, 128<<10)
	for k := cpu.UnitKind(0); k < cpu.NumUnitKinds; k++ {
		u := cfg.Units[k]
		e := unitEnergy[k]
		w := unitStaticWatts[k]
		if !u.Pipelined {
			e *= weakUnitFactor
			w *= weakUnitFactor
		}
		p.UnitOp[k] = e
		static += w * float64(u.Count)
	}
	p.StaticWatts = static
	return p
}

// CacheStats bundles the hierarchy counters for one accounting
// snapshot.
type CacheStats struct {
	L1I, L1D, L2 cache.Stats
}

// Sub returns s - o per level.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		L1I: s.L1I.Sub(o.L1I),
		L1D: s.L1D.Sub(o.L1D),
		L2:  s.L2.Sub(o.L2),
	}
}

// SnapshotCaches reads the hierarchy counters of a core.
func SnapshotCaches(c *cpu.Core) CacheStats {
	h := c.Hierarchy()
	return CacheStats{L1I: h.L1I.Stats(), L1D: h.L1D.Stats(), L2: h.L2.Stats()}
}

// Model computes energy for a specific core configuration.
type Model struct {
	cfg    *cpu.Config
	params *EnergyParams
}

// NewModel builds a power model for cfg with DefaultParams.
func NewModel(cfg *cpu.Config) *Model {
	return &Model{cfg: cfg, params: DefaultParams(cfg)}
}

// NewModelWithParams builds a power model with explicit parameters
// (for calibration studies and tests).
func NewModelWithParams(cfg *cpu.Config, p *EnergyParams) *Model {
	if p == nil {
		panic("power: nil params")
	}
	return &Model{cfg: cfg, params: p}
}

// Params returns the model's energy parameters.
func (m *Model) Params() *EnergyParams { return m.params }

// DynamicEnergyNJ returns the dynamic energy, in nanojoules, of the
// given activity delta plus cache traffic delta.
//
//ampvet:unit nanojoules
func (m *Model) DynamicEnergyNJ(act cpu.Activity, cs CacheStats) float64 {
	p := m.params
	e := 0.0
	e += float64(act.FetchGroups) * p.Fetch
	e += float64(act.BPredOps) * p.BPred
	e += float64(act.Renames) * p.Rename
	e += float64(act.ROBWrites) * p.ROBWrite
	e += float64(act.ROBReads) * p.ROBRead
	e += float64(act.IntISQWrites+act.IntISQIssues) * p.IntISQOp
	e += float64(act.FPISQWrites+act.FPISQIssues) * p.FPISQOp
	e += float64(act.IntRegReads) * p.IntRegRead
	e += float64(act.IntRegWrites) * p.IntRegWr
	e += float64(act.FPRegReads) * p.FPRegRead
	e += float64(act.FPRegWrites) * p.FPRegWr
	e += float64(act.LSQWrites+act.LSQSearches) * p.LSQOp
	for k := cpu.UnitKind(0); k < cpu.NumUnitKinds; k++ {
		e += float64(act.UnitOps[k]) * p.UnitOp[k]
	}
	e += float64(act.Cycles) * p.ClockPerCycle

	e += float64(cs.L1I.Accesses+cs.L1D.Accesses) * p.L1Access
	e += float64(cs.L2.Accesses) * p.L2Access
	// L2 misses go to memory; writebacks also cost a memory transfer.
	e += float64(cs.L2.Misses+cs.L2.Writebacks) * p.MemAccess
	return e
}

// StaticEnergyNJ returns leakage energy over the given number of
// cycles (active plus stalled).
//
//ampvet:unit nanojoules
//ampvet:unit cycles cycles
func (m *Model) StaticEnergyNJ(cycles uint64) float64 {
	seconds := float64(cycles) / (m.cfg.FreqGHz * 1e9)
	return m.params.StaticWatts * seconds * 1e9
}

// EnergyNJ returns total (dynamic + static) energy for an interval.
// The static portion covers act.Cycles + act.StallCycles.
//
//ampvet:unit nanojoules
func (m *Model) EnergyNJ(act cpu.Activity, cs CacheStats) float64 {
	return m.DynamicEnergyNJ(act, cs) + m.StaticEnergyNJ(act.Cycles+act.StallCycles)
}

// Watts converts an interval's energy (nJ) over cycles into average
// watts.
//
//ampvet:unit watts
//ampvet:unit energyNJ nanojoules
//ampvet:unit cycles cycles
func (m *Model) Watts(energyNJ float64, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / (m.cfg.FreqGHz * 1e9)
	return energyNJ * 1e-9 / seconds
}

// IPCPerWatt computes the paper's metric for an interval: committed
// instructions per cycle divided by average watts.
//
//ampvet:unit committed instructions
//ampvet:unit cycles cycles
//ampvet:unit energyNJ nanojoules
func (m *Model) IPCPerWatt(committed, cycles uint64, energyNJ float64) (float64, error) {
	if cycles == 0 {
		return 0, fmt.Errorf("power: zero-cycle interval")
	}
	w := m.Watts(energyNJ, cycles)
	if w <= 0 {
		return 0, fmt.Errorf("power: non-positive watts %g", w)
	}
	ipc := float64(committed) / float64(cycles)
	return ipc / w, nil
}
