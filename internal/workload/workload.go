// Package workload synthesizes the dynamic instruction streams the
// simulator executes.
//
// The paper runs 37 benchmarks (SPEC CPU2000, MiBench, MediaBench and
// synthetic stress kernels) on the SESC simulator. Those binaries,
// inputs and the simulator are not available here, so this package
// provides the closest synthetic equivalent: each benchmark is modeled
// as a deterministic phase machine. A phase fixes the statistical
// properties the schedulers and the pipeline model can observe —
// instruction-class mix, instruction-level parallelism (dependency
// distance distribution), branch predictability, working-set size and
// spatial locality. Phase changes reproduce the time-varying behaviour
// (§I, [6]) that motivates fine-grained scheduling: several benchmarks
// deliberately change flavor on a scale shorter than the 2 ms
// context-switch interval used by the HPE and Round Robin schemes.
//
// Generation is fully deterministic given a seed, so whole experiments
// are reproducible.
package workload

import (
	"fmt"
	"math"

	"ampsched/internal/isa"
	"ampsched/internal/rng"
)

// Phase describes one statistically-stationary region of a benchmark.
type Phase struct {
	// Name labels the phase in reports ("loop1", "fpkernel", ...).
	Name string

	// Mix is the instruction-class distribution sampled per
	// instruction. It must sum to 1 (Benchmark.Validate checks).
	Mix isa.Mix

	// Length is the number of dynamic instructions in the phase
	// before the benchmark advances to the next phase.
	Length uint64

	// MeanDepDist is the mean of the geometric distribution from
	// which producer distances are drawn. Small values (2-4) mean
	// serial, dependence-bound code; large values (12+) mean high
	// ILP.
	MeanDepDist float64

	// BranchPredictability in [0.5, 1.0] is the asymptotic accuracy
	// a correlating predictor can reach on this phase's branches.
	BranchPredictability float64

	// WorkingSet is the size in bytes of the phase's data footprint.
	// Footprints larger than a cache level produce misses at that
	// level.
	WorkingSet uint64

	// SeqFrac in [0, 1] is the fraction of memory accesses that walk
	// the working set sequentially (with Stride); the remainder are
	// uniform random within the working set.
	SeqFrac float64

	// Stride is the byte step of sequential accesses (0 defaults
	// to 8).
	Stride uint64
}

// Benchmark is a named sequence of phases. When the last phase ends
// the generator wraps to the first (programs in the paper run until an
// instruction budget is reached, not until natural termination).
type Benchmark struct {
	Name   string
	Suite  string // "SPEC", "MiBench", "MediaBench", "Synthetic"
	Phases []Phase

	// CodeFootprint is the static code size in bytes, used to drive
	// the instruction-cache model (taken branches jump within it).
	// Zero defaults to 2 KB — a small kernel resident in the 4 KB IL1.
	CodeFootprint uint64

	// Notes documents the provenance of the model: what the real
	// program does and which of its documented properties shaped the
	// phases above.
	Notes string
}

// DefaultCodeFootprint is used when a benchmark does not specify one.
const DefaultCodeFootprint = 2 << 10

// EffectiveCodeFootprint returns the code footprint with the default
// applied.
func (b *Benchmark) EffectiveCodeFootprint() uint64 {
	if b.CodeFootprint == 0 {
		return DefaultCodeFootprint
	}
	return b.CodeFootprint
}

// Validate reports the first structural problem with the benchmark
// definition, or nil.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark with empty name")
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workload: %s has no phases", b.Name)
	}
	for i := range b.Phases {
		p := &b.Phases[i]
		if err := p.Mix.Validate(); err != nil {
			return fmt.Errorf("workload: %s phase %d (%s): %w", b.Name, i, p.Name, err)
		}
		if p.Length == 0 {
			return fmt.Errorf("workload: %s phase %d (%s): zero length", b.Name, i, p.Name)
		}
		if p.BranchPredictability < 0.5 || p.BranchPredictability > 1.0 {
			return fmt.Errorf("workload: %s phase %d (%s): predictability %g outside [0.5,1]",
				b.Name, i, p.Name, p.BranchPredictability)
		}
		if p.WorkingSet == 0 {
			return fmt.Errorf("workload: %s phase %d (%s): zero working set", b.Name, i, p.Name)
		}
		if p.SeqFrac < 0 || p.SeqFrac > 1 {
			return fmt.Errorf("workload: %s phase %d (%s): SeqFrac %g outside [0,1]",
				b.Name, i, p.Name, p.SeqFrac)
		}
		if p.MeanDepDist < 1 {
			return fmt.Errorf("workload: %s phase %d (%s): MeanDepDist %g < 1",
				b.Name, i, p.Name, p.MeanDepDist)
		}
	}
	return nil
}

// TotalPhaseLength returns the number of instructions in one pass over
// all phases.
func (b *Benchmark) TotalPhaseLength() uint64 {
	var n uint64
	for i := range b.Phases {
		n += b.Phases[i].Length
	}
	return n
}

// AverageMix returns the phase-length-weighted average instruction
// mix of the benchmark.
func (b *Benchmark) AverageMix() isa.Mix {
	var m isa.Mix
	total := float64(b.TotalPhaseLength())
	if total == 0 {
		return m
	}
	for i := range b.Phases {
		w := float64(b.Phases[i].Length) / total
		for c := range m {
			m[c] += w * b.Phases[i].Mix[c]
		}
	}
	return m
}

// Flavor classifies the benchmark by its average mix the way the paper
// groups workloads: "INT" (INT-intensive), "FP" (FP-intensive) or
// "MIX".
func (b *Benchmark) Flavor() string {
	m := b.AverageMix()
	intF, fpF := m.IntFrac(), m.FPFrac()
	switch {
	case fpF >= 0.15 && intF >= 0.25:
		return "MIX"
	case fpF >= 0.15:
		return "FP"
	default:
		return "INT"
	}
}

// branchSites is the number of distinct synthetic branch PCs per
// phase. Enough for a gshare predictor to exercise aliasing without
// making warmup dominate short runs.
const branchSites = 64

// Generator streams the dynamic instructions of one benchmark.
// It is not safe for concurrent use; each simulated thread owns one.
type Generator struct {
	bench *Benchmark
	rand  *rng.Source

	// addrBase offsets all data addresses so that two threads never
	// alias in a cache by accident.
	addrBase uint64

	phaseIdx  int
	remaining uint64
	cum       [isa.NumClasses]float64
	seqPtr    uint64
	stride    uint64
	wsMask    uint64 // working set rounded up to power of two minus 1
	ws        uint64
	siteBias  [branchSites]float64
	branchPCs [branchSites]uint64

	// depLog caches math.Log(1-1/mean) of the phase's two dependence
	// means, MeanDepDist and twice it, for rng.GeometricLog.
	depLog [2]float64

	emitted uint64
}

// NewGenerator returns a generator for bench with its own random
// stream derived from seed. addrBase should differ between the two
// simulated threads (e.g. 0 and 1<<40).
func NewGenerator(bench *Benchmark, seed uint64, addrBase uint64) *Generator {
	g := &Generator{}
	g.Reset(bench, seed, addrBase)
	return g
}

// Reset re-initializes the generator in place to the exact state
// NewGenerator(bench, seed, addrBase) produces, reusing the random
// source. The pooled pair sweep relies on a reset generator being
// bit-identical to a fresh one.
func (g *Generator) Reset(bench *Benchmark, seed uint64, addrBase uint64) {
	if err := bench.Validate(); err != nil {
		panic(err)
	}
	r := g.rand
	if r == nil {
		r = rng.New(seed)
	} else {
		r.Seed(seed)
	}
	*g = Generator{
		bench:    bench,
		rand:     r,
		addrBase: addrBase,
		phaseIdx: -1,
	}
	g.nextPhase()
}

// Benchmark returns the benchmark this generator streams.
func (g *Generator) Benchmark() *Benchmark { return g.bench }

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// PhaseIndex returns the index of the phase currently being emitted.
func (g *Generator) PhaseIndex() int { return g.phaseIdx }

// PhasePos returns the phase the NEXT instruction belongs to and how
// many instructions remain in it (including that one). It normalizes
// the lazy phase advance Next performs, so callers that plan whole
// phases at a time (the interval engine) see a non-zero remainder.
func (g *Generator) PhasePos() (phase int, remaining uint64) {
	if g.remaining == 0 {
		g.nextPhase()
	}
	return g.phaseIdx, g.remaining
}

// Skip advances the generator by n instructions without synthesizing
// them, walking phase boundaries exactly as n calls to Next would.
// nextPhase draws nothing from the random stream, so skipping is O(
// phases crossed); the per-instruction random draws are simply never
// made. Runs that mix Skip and Next are still fully deterministic in
// (seed, call sequence), which is the contract the interval engine
// needs — it is NOT the same stream a pure-Next run would see.
func (g *Generator) Skip(n uint64) {
	for n > 0 {
		if g.remaining == 0 {
			g.nextPhase()
		}
		step := g.remaining
		if step > n {
			step = n
		}
		g.remaining -= step
		g.emitted += step
		n -= step
	}
}

func (g *Generator) nextPhase() {
	g.phaseIdx++
	if g.phaseIdx >= len(g.bench.Phases) {
		g.phaseIdx = 0
	}
	p := &g.bench.Phases[g.phaseIdx]
	g.remaining = p.Length

	// Cumulative distribution for class sampling.
	var c float64
	for i := 0; i < int(isa.NumClasses); i++ {
		c += p.Mix[i]
		g.cum[i] = c
	}
	g.cum[isa.NumClasses-1] = 1.0 // absorb rounding

	g.stride = p.Stride
	if g.stride == 0 {
		g.stride = 8
	}
	// Round the working set up to a power of two for cheap masking.
	g.ws = p.WorkingSet
	sz := uint64(64)
	for sz < g.ws {
		sz <<= 1
	}
	g.wsMask = sz - 1
	g.seqPtr = 0

	g.depLog = [2]float64{math.Log(1 - 1/p.MeanDepDist), math.Log(1 - 1/(2*p.MeanDepDist))}

	// Per-site branch bias: each site is strongly biased toward one
	// direction with probability equal to the phase's predictability,
	// so a learned predictor converges to that accuracy.
	pr := p.BranchPredictability
	for i := range g.siteBias {
		if i%2 == 0 {
			g.siteBias[i] = pr
		} else {
			g.siteBias[i] = 1 - pr
		}
		// Synthetic branch PCs: spread across the phase's "code".
		g.branchPCs[i] = (uint64(g.phaseIdx)<<20 | uint64(i)<<4) + 0x400000
	}
}

func (g *Generator) sampleClass() isa.Class {
	u := g.rand.Float64()
	for i := 0; i < int(isa.NumClasses); i++ {
		if u < g.cum[i] {
			return isa.Class(i)
		}
	}
	return isa.Branch
}

// depDist draws rng.Geometric(mean) through the phase's cached
// logarithm logq of that mean.
func (g *Generator) depDist(mean, logq float64) int32 {
	if mean <= 1 {
		return 1 // Geometric draws nothing
	}
	return int32(g.rand.GeometricLog(logq))
}

// Next fills in with the next dynamic instruction.
func (g *Generator) Next(in *isa.Instruction) {
	if g.remaining == 0 {
		g.nextPhase()
	}
	p := &g.bench.Phases[g.phaseIdx]
	in.Reset()
	in.Class = g.sampleClass()

	// Dependences: two producers with geometric distances. A distance
	// of 0 (no dependence) happens for a fraction of operands to model
	// immediates and loop-invariant values.
	if g.rand.Bool(0.9) {
		in.Dep1 = g.depDist(p.MeanDepDist, g.depLog[0])
	}
	if g.rand.Bool(0.5) {
		in.Dep2 = g.depDist(p.MeanDepDist*2, g.depLog[1])
	}

	switch {
	case in.Class.IsMem():
		var off uint64
		if g.rand.Bool(p.SeqFrac) {
			g.seqPtr = (g.seqPtr + g.stride) & g.wsMask
			for g.seqPtr >= g.ws { // stay within the true working set
				g.seqPtr = 0
			}
			off = g.seqPtr
		} else {
			off = g.rand.Uint64n(g.ws) &^ 7 // 8-byte aligned random
		}
		in.Addr = g.addrBase + off
	case in.Class == isa.Branch:
		site := g.rand.Intn(branchSites)
		in.Addr = g.branchPCs[site]
		in.Taken = g.rand.Bool(g.siteBias[site])
	}

	g.remaining--
	g.emitted++
}
