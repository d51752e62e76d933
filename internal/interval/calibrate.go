package interval

import (
	"sync"
	"sync/atomic"

	"ampsched/internal/cache"
	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// Calibration anchors the analytic model to the detailed core: a short
// detailed-mode solo run of the benchmark on the exact core
// configuration measures the achieved IPC and the per-committed-
// instruction event rates (every Activity counter and cache counter
// the power model charges). The model's per-phase IPCs are scaled by
// Correction so their run aggregate reproduces MeasuredIPC, and the
// event rates let the interval engine synthesize an Activity ledger
// whose energy-per-instruction matches detailed mode.
//
// Calibration is a pure function of (core config, effective units,
// benchmark): the run uses a fixed seed and instruction budget, so the
// stored result is deterministic no matter which goroutine computes it
// first, and repeated runs in one process reuse the cached value.
type Calibration struct {
	// MeasuredIPC is the detailed run's aggregate IPC.
	MeasuredIPC float64
	// ModelIPC is the uncalibrated model aggregate over the same
	// instruction span (cold-start ramp included).
	ModelIPC float64
	// Correction = MeasuredIPC / ModelIPC.
	Correction float64
	// PhaseIPC is the calibrated steady-state IPC per benchmark phase:
	// the directly measured per-phase IPC where the calibration run
	// observed the phase for at least calMinPhaseInstr instructions,
	// and Correction * modelPhaseIPC otherwise.
	PhaseIPC []float64
	// MaxPhaseIPC is the largest PhaseIPC entry: no window of the
	// interval engine commits faster (Correction * model may exceed
	// the core's commit width, so the width is not a bound).
	MaxPhaseIPC float64
	// Committed is the calibration run's instruction count.
	Committed uint64
	// Rates are the per-committed-instruction event rates.
	Rates rateVec

	// classes[p] lists phase p's nonzero mix classes with their
	// fractions so the commit loop touches only classes the phase can
	// issue. Skipping a zero-mix class is float-exact: the original
	// all-classes loop added mix[c]*mf == 0 to an accumulator that was
	// already < 1, committing nothing.
	classes [][]classShare
}

// classShare pairs an instruction class index with its mix fraction.
type classShare struct {
	cls  int
	frac float64
}

// activeClasses precomputes the per-phase nonzero-class lists.
func activeClasses(bench *workload.Benchmark) [][]classShare {
	classes := make([][]classShare, len(bench.Phases))
	for p := range bench.Phases {
		mix := &bench.Phases[p].Mix
		for c := 0; c < int(isa.NumClasses); c++ {
			if mix[c] != 0 {
				classes[p] = append(classes[p], classShare{cls: c, frac: mix[c]})
			}
		}
	}
	return classes
}

// calInstr is the calibration run's minimum instruction budget; the
// actual budget stretches to one full pass over the benchmark's phase
// cycle (plus the cold-start ramp) so every phase gets a directly
// measured IPC, capped at calMaxInstr.
const calInstr = 60_000

// calMaxInstr bounds the calibration run so a single calibration stays
// well under a second of wall time.
const calMaxInstr = 500_000

// calMinPhaseInstr is the least per-phase coverage that earns a phase
// a directly measured IPC instead of the corrected model value.
const calMinPhaseInstr = 5_000

// calCycleCap aborts a calibration run that stops committing
// (defensive; the detailed core always makes progress on valid
// workloads). Sized for calMaxInstr at the model's floor IPC.
const calCycleCap = 16_000_000

// calSeed is the fixed workload seed of every calibration run, making
// Calibration a pure function of (config, units, benchmark).
const calSeed = 1

// rateVec is the flattened per-instruction rate vector: the Activity
// counters the interval engine must synthesize (cycle counters
// excluded — the engine tracks those exactly) plus the three cache
// levels' counters.
type rateVec [nRates]float64

// rateVec layout.
const (
	rFetchGroups = iota
	rFetchedOps
	rBPredOps
	rRenames
	rROBWrites
	rROBReads
	rIntISQWrites
	rFPISQWrites
	rIntISQIssues
	rFPISQIssues
	rIntRegReads
	rIntRegWrites
	rFPRegReads
	rFPRegWrites
	rLSQWrites
	rLSQSearches
	rUnitOps // 7 consecutive slots, one per cpu.UnitKind
)

const (
	rL1IAccesses = rUnitOps + int(cpu.NumUnitKinds) + iota
	rL1IMisses
	rL1IWritebacks
	rL1DAccesses
	rL1DMisses
	rL1DWritebacks
	rL2Accesses
	rL2Misses
	rL2Writebacks
	nRates
)

// ratesFrom converts a calibration run's totals into per-instruction
// rates.
func ratesFrom(act cpu.Activity, l1i, l1d, l2 cache.Stats, committed uint64) rateVec {
	var r rateVec
	if committed == 0 {
		return r
	}
	inv := 1 / float64(committed)
	r[rFetchGroups] = float64(act.FetchGroups) * inv
	r[rFetchedOps] = float64(act.FetchedOps) * inv
	r[rBPredOps] = float64(act.BPredOps) * inv
	r[rRenames] = float64(act.Renames) * inv
	r[rROBWrites] = float64(act.ROBWrites) * inv
	r[rROBReads] = float64(act.ROBReads) * inv
	r[rIntISQWrites] = float64(act.IntISQWrites) * inv
	r[rFPISQWrites] = float64(act.FPISQWrites) * inv
	r[rIntISQIssues] = float64(act.IntISQIssues) * inv
	r[rFPISQIssues] = float64(act.FPISQIssues) * inv
	r[rIntRegReads] = float64(act.IntRegReads) * inv
	r[rIntRegWrites] = float64(act.IntRegWrites) * inv
	r[rFPRegReads] = float64(act.FPRegReads) * inv
	r[rFPRegWrites] = float64(act.FPRegWrites) * inv
	r[rLSQWrites] = float64(act.LSQWrites) * inv
	r[rLSQSearches] = float64(act.LSQSearches) * inv
	for k := 0; k < int(cpu.NumUnitKinds); k++ {
		r[rUnitOps+k] = float64(act.UnitOps[k]) * inv
	}
	r[rL1IAccesses] = float64(l1i.Accesses) * inv
	r[rL1IMisses] = float64(l1i.Misses) * inv
	r[rL1IWritebacks] = float64(l1i.Writebacks) * inv
	r[rL1DAccesses] = float64(l1d.Accesses) * inv
	r[rL1DMisses] = float64(l1d.Misses) * inv
	r[rL1DWritebacks] = float64(l1d.Writebacks) * inv
	r[rL2Accesses] = float64(l2.Accesses) * inv
	r[rL2Misses] = float64(l2.Misses) * inv
	r[rL2Writebacks] = float64(l2.Writebacks) * inv
	return r
}

// materialize converts an accumulated (monotonically growing) rate
// vector into integer counters. Flooring a monotone float is monotone,
// so successive Stats snapshots diff cleanly.
func materialize(acc *rateVec) (act cpu.Activity, l1i, l1d, l2 cache.Stats) {
	act.FetchGroups = uint64(acc[rFetchGroups])
	act.FetchedOps = uint64(acc[rFetchedOps])
	act.BPredOps = uint64(acc[rBPredOps])
	act.Renames = uint64(acc[rRenames])
	act.ROBWrites = uint64(acc[rROBWrites])
	act.ROBReads = uint64(acc[rROBReads])
	act.IntISQWrites = uint64(acc[rIntISQWrites])
	act.FPISQWrites = uint64(acc[rFPISQWrites])
	act.IntISQIssues = uint64(acc[rIntISQIssues])
	act.FPISQIssues = uint64(acc[rFPISQIssues])
	act.IntRegReads = uint64(acc[rIntRegReads])
	act.IntRegWrites = uint64(acc[rIntRegWrites])
	act.FPRegReads = uint64(acc[rFPRegReads])
	act.FPRegWrites = uint64(acc[rFPRegWrites])
	act.LSQWrites = uint64(acc[rLSQWrites])
	act.LSQSearches = uint64(acc[rLSQSearches])
	for k := 0; k < int(cpu.NumUnitKinds); k++ {
		act.UnitOps[k] = uint64(acc[rUnitOps+k])
	}
	l1i = cache.Stats{Accesses: uint64(acc[rL1IAccesses]), Misses: uint64(acc[rL1IMisses]), Writebacks: uint64(acc[rL1IWritebacks])}
	l1d = cache.Stats{Accesses: uint64(acc[rL1DAccesses]), Misses: uint64(acc[rL1DMisses]), Writebacks: uint64(acc[rL1DWritebacks])}
	l2 = cache.Stats{Accesses: uint64(acc[rL2Accesses]), Misses: uint64(acc[rL2Misses]), Writebacks: uint64(acc[rL2Writebacks])}
	return act, l1i, l1d, l2
}

// calKey identifies one calibration: the full core configuration (by
// value — Config is comparable), the effective unit set (which morphing
// changes independently of the config), and the benchmark name.
type calKey struct {
	cfg   cpu.Config
	units [cpu.NumUnitKinds]cpu.UnitSpec
	bench string
}

// DefaultCalCacheBytes is the calibration cache's default byte budget:
// hundreds of entries — every (core, benchmark) combination a dual-core
// sweep can produce fits with room to spare — while a long-lived
// ampserve process cycling through morphed unit sets and client core
// configurations stays bounded instead of growing per distinct key.
const DefaultCalCacheBytes = 1 << 20

// calEntryOverhead approximates one cache entry's fixed footprint: the
// Calibration struct (rateVec included), the map slot and the key copy
// (a cpu.Config by value).
const calEntryOverhead = 1024

// calEntry is one cached calibration with its recency stamp. The stamp
// is atomic so cache hits stay on the read lock — eviction order is
// approximate LRU, which is all a correctness-free cache needs.
type calEntry struct {
	cal     *Calibration
	size    uint64 // approximate footprint in bytes
	lastUse atomic.Uint64
}

var (
	calMu     sync.RWMutex
	calCache  = map[calKey]*calEntry{}
	calBytes  uint64 // sum of resident entry sizes in bytes
	calBudget uint64 = DefaultCalCacheBytes
	calClock  atomic.Uint64
	calTel    atomic.Pointer[telemetry.Telemetry]
)

// SetTelemetry wires the package's calibration counters — the
// "interval.calibrations" detailed-run count and
// "interval.cal_cache_hits" — to t (nil detaches them). Safe to call
// concurrently with running engines.
func SetTelemetry(t *telemetry.Telemetry) { calTel.Store(t) }

// SetCalibrationCacheBudget replaces the calibration cache's byte
// budget (0 restores DefaultCalCacheBytes), evicting oldest-first
// down to the new bound.
func SetCalibrationCacheBudget(bytes uint64) {
	if bytes == 0 {
		bytes = DefaultCalCacheBytes
	}
	calMu.Lock()
	calBudget = bytes
	calEvictLocked()
	calMu.Unlock()
}

// calSize estimates one calibration's cache footprint.
func calSize(c *Calibration) uint64 {
	s := uint64(calEntryOverhead) + 8*uint64(len(c.PhaseIPC))
	for _, cs := range c.classes {
		s += 24 + 16*uint64(len(cs))
	}
	return s
}

// calEvictLocked drops approximately-least-recently-used entries until
// the cache fits its budget, always keeping the newest entry so an
// oversized budget cannot thrash a single working calibration.
func calEvictLocked() {
	for calBytes > calBudget && len(calCache) > 1 {
		var (
			oldestKey calKey
			oldest    *calEntry
		)
		// Map order only breaks recency-stamp ties between eviction
		// victims; a re-calibrated entry is bit-identical to the
		// evicted one, so results never see the order.
		for k, e := range calCache { //ampvet:allow determinism eviction-order ties cannot reach results; calibration is a pure function of its key
			if oldest == nil || e.lastUse.Load() < oldest.lastUse.Load() {
				oldestKey, oldest = k, e
			}
		}
		delete(calCache, oldestKey)
		calBytes -= oldest.size
	}
}

// calibrationFor returns the (cached) calibration for running bench on
// a core with configuration cfg and effective units. Hits touch only
// the read lock (the recency stamp is atomic); misses run the detailed
// calibration outside any lock and may evict older entries on insert.
func calibrationFor(cfg *cpu.Config, units [cpu.NumUnitKinds]cpu.UnitSpec, bench *workload.Benchmark) *Calibration {
	key := calKey{cfg: *cfg, units: units, bench: bench.Name}
	calMu.RLock()
	e := calCache[key]
	calMu.RUnlock()
	tel := calTel.Load()
	if e != nil {
		e.lastUse.Store(calClock.Add(1))
		tel.Counter("interval.cal_cache_hits").Inc()
		return e.cal
	}
	cal := Calibrate(cfg, units, bench)
	tel.Counter("interval.calibrations").Inc()
	calMu.Lock()
	if prior := calCache[key]; prior != nil {
		prior.lastUse.Store(calClock.Add(1))
		cal = prior.cal // another goroutine computed the identical result
	} else {
		e := &calEntry{cal: cal, size: calSize(cal)}
		e.lastUse.Store(calClock.Add(1))
		calCache[key] = e
		calBytes += e.size
		calEvictLocked()
	}
	calMu.Unlock()
	return cal
}

// Calibrate runs bench for calInstr instructions on a detailed core
// built from cfg (with the effective unit set installed) and derives
// the calibration. Exported for tests and the DESIGN.md numbers.
func Calibrate(cfg *cpu.Config, units [cpu.NumUnitKinds]cpu.UnitSpec, bench *workload.Benchmark) *Calibration {
	core := cpu.NewCore(cfg)
	if units != cfg.Units {
		if err := core.Reconfigure(units); err != nil {
			panic(err)
		}
	}
	gen := workload.NewGenerator(bench, calSeed, 0)
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	core.Bind(gen, arch)

	// Budget: one full pass over the phase cycle past the cold-start
	// ramp, so each phase's IPC can be measured rather than modeled.
	var cycleLen uint64
	for p := range bench.Phases {
		cycleLen += bench.Phases[p].Length
	}
	target := uint64(calInstr)
	if t := cycleLen + rampInstr; t > target {
		target = t
	}
	if target > calMaxInstr {
		target = calMaxInstr
	}

	// Per-phase attribution: cycles and commits land on the phase the
	// generator is currently fetching from. The in-flight window smears
	// the boundaries by a few hundred instructions, which the
	// calMinPhaseInstr floor absorbs; the ramp-up span is excluded so
	// the run-time cold factor is not double-counted.
	phaseCycles := make([]float64, len(bench.Phases))
	phaseCommit := make([]uint64, len(bench.Phases))
	var cycle, lastCommit uint64
	for arch.Committed < target && cycle < calCycleCap {
		p, _ := gen.PhasePos()
		core.Step(cycle)
		cycle++
		if arch.Committed >= rampInstr {
			phaseCycles[p]++
			phaseCommit[p] += arch.Committed - lastCommit
		}
		lastCommit = arch.Committed
	}
	st := core.Stats()

	cal := &Calibration{
		Committed: arch.Committed,
		Rates:     ratesFrom(st.Act, st.L1I, st.L1D, st.L2, arch.Committed),
		PhaseIPC:  make([]float64, len(bench.Phases)),
		classes:   activeClasses(bench),
	}
	if cycle > 0 {
		cal.MeasuredIPC = float64(arch.Committed) / float64(cycle)
	}

	// Uncalibrated model aggregate over the same instruction span: walk
	// the phases the run covered (from phase 0, as the generator does),
	// applying the cold-start ramp, and harmonically aggregate.
	raw := make([]float64, len(bench.Phases))
	for p := range bench.Phases {
		raw[p] = modelPhaseIPC(cfg, &units, &bench.Phases[p], bench.EffectiveCodeFootprint())
	}
	var (
		cycleSum float64
		done     uint64
		phase    int
		rem      = bench.Phases[0].Length
	)
	for done < cal.Committed {
		chunk := cal.Committed - done
		if chunk > rem {
			chunk = rem
		}
		if chunk > 1024 {
			chunk = 1024
		}
		cycleSum += float64(chunk) / (raw[phase] * coldFactor(done))
		done += chunk
		rem -= chunk
		if rem == 0 {
			phase++
			if phase >= len(bench.Phases) {
				phase = 0
			}
			rem = bench.Phases[phase].Length
		}
	}
	if cycleSum > 0 {
		cal.ModelIPC = float64(cal.Committed) / cycleSum
	}
	cal.Correction = 1
	if cal.ModelIPC > 0 && cal.MeasuredIPC > 0 {
		cal.Correction = cal.MeasuredIPC / cal.ModelIPC
	}
	for p := range raw {
		if phaseCommit[p] >= calMinPhaseInstr && phaseCycles[p] > 0 {
			cal.PhaseIPC[p] = float64(phaseCommit[p]) / phaseCycles[p]
		} else {
			cal.PhaseIPC[p] = cal.Correction * raw[p]
		}
		cal.MaxPhaseIPC = max(cal.MaxPhaseIPC, cal.PhaseIPC[p])
	}
	return cal
}
