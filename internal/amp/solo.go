package amp

import (
	"fmt"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/power"
	"ampsched/internal/workload"
)

// SoloSample is one profiling observation: the interval's committed
// instruction composition and achieved IPC/Watt, exactly the tuple the
// HPE profiling step of §V collects every 2 ms (cycle sampling) and
// the rule-derivation experiment of §VI-A collects per committed
// window (instruction sampling).
type SoloSample struct {
	EndCycle uint64 //ampvet:unit cycles
	// Committed in this interval.
	Committed  uint64 //ampvet:unit instructions
	IntPct     float64
	FPPct      float64
	IPC        float64 //ampvet:unit ipc
	Watts      float64 //ampvet:unit watts
	IPCPerWatt float64 //ampvet:unit ipc_per_watt
}

// SoloResult summarizes a single-thread, single-core run.
type SoloResult struct {
	Core       string
	Bench      string
	Cycles     uint64  //ampvet:unit cycles
	Committed  uint64  //ampvet:unit instructions
	EnergyNJ   float64 //ampvet:unit nanojoules
	IPC        float64 //ampvet:unit ipc
	Watts      float64 //ampvet:unit watts
	IPCPerWatt float64 //ampvet:unit ipc_per_watt
	Samples    []SoloSample
}

// SoloRun executes bench alone on a core built from coreCfg until
// limit instructions commit, recording a SoloSample every sampleCycles
// cycles (0 disables periodic sampling; a final sample always closes
// the run).
func SoloRun(coreCfg *cpu.Config, bench *workload.Benchmark, seed, limit, sampleCycles uint64) SoloResult {
	return soloRun(nil, coreCfg, bench, seed, limit, sampleCycles, 0)
}

// SoloRunEngine is SoloRun at a selectable simulation fidelity: the
// core is built by factory (nil means cpu.DetailedFactory, making
// this a superset of SoloRun). The cross-engine equivalence suite
// compares SoloRun against SoloRunEngine(interval.Factory(), ...).
func SoloRunEngine(factory cpu.EngineFactory, coreCfg *cpu.Config, bench *workload.Benchmark, seed, limit, sampleCycles uint64) SoloResult {
	return soloRun(factory, coreCfg, bench, seed, limit, sampleCycles, 0)
}

// SoloRunWindows is SoloRun sampling on committed-instruction window
// boundaries instead of cycle boundaries. Windows align exactly across
// cores for the same benchmark and seed, which is what the §VI-A rule
// derivation needs to compare per-window mappings.
func SoloRunWindows(coreCfg *cpu.Config, bench *workload.Benchmark, seed, limit, windowInstr uint64) SoloResult {
	if windowInstr == 0 {
		panic("amp: SoloRunWindows with zero window")
	}
	return soloRun(nil, coreCfg, bench, seed, limit, 0, windowInstr)
}

func soloRun(factory cpu.EngineFactory, coreCfg *cpu.Config, bench *workload.Benchmark, seed, limit, sampleCycles, sampleInstrs uint64) SoloResult {
	if factory == nil {
		factory = cpu.DetailedFactory
	}
	core, err := factory(coreCfg)
	if err != nil {
		panic(fmt.Sprintf("amp: solo engine for %s: %v", coreCfg.Name, err))
	}
	model := power.NewModel(coreCfg)
	th := NewThread(0, bench, seed, 0)
	core.Bind(th.Gen, &th.Arch)

	var (
		cycle          uint64
		lastAct        cpu.Activity
		lastCache      power.CacheStats
		lastCommit     uint64
		lastClassCnt   [isa.NumClasses]uint64
		nextSampleCyc  = sampleCycles
		nextSampleInst = sampleInstrs
		samples        []SoloSample
		totalEnergy    float64
		lastProgress   uint64
		lastTotal      uint64
	)

	takeSample := func() {
		th.Arch.Sync()
		st := core.Stats()
		act := st.Act
		cs := power.CacheStats{L1I: st.L1I, L1D: st.L1D, L2: st.L2}
		dAct := act.Sub(lastAct)
		dCS := cs.Sub(lastCache)
		e := model.EnergyNJ(dAct, dCS)
		totalEnergy += e
		intervalCycles := dAct.Cycles + dAct.StallCycles
		committed := th.Arch.Committed - lastCommit

		var intN, fpN uint64
		for c := isa.Class(0); c < isa.NumClasses; c++ {
			d := th.Arch.CommittedByClass[c] - lastClassCnt[c]
			if c.IsInt() {
				intN += d
			} else if c.IsFP() {
				fpN += d
			}
		}
		s := SoloSample{EndCycle: cycle, Committed: committed}
		if committed > 0 {
			s.IntPct = 100 * float64(intN) / float64(committed)
			s.FPPct = 100 * float64(fpN) / float64(committed)
		}
		if intervalCycles > 0 {
			s.IPC = float64(committed) / float64(intervalCycles)
			s.Watts = model.Watts(e, intervalCycles)
			if s.Watts > 0 {
				s.IPCPerWatt = s.IPC / s.Watts
			}
		}
		samples = append(samples, s)

		lastAct = act
		lastCache = cs
		lastCommit = th.Arch.Committed
		lastClassCnt = th.Arch.CommittedByClass
	}

	stride := core.Stride()
	for th.Arch.Committed < limit {
		core.Run(cycle, stride, 1)
		cycle += stride
		if sampleCycles > 0 && cycle >= nextSampleCyc {
			takeSample()
			nextSampleCyc += sampleCycles
		}
		if sampleInstrs > 0 && th.Arch.Committed >= nextSampleInst {
			takeSample()
			nextSampleInst += sampleInstrs
		}
		if cycle-lastProgress >= watchdogWindow {
			if th.Arch.Committed == lastTotal {
				panic(fmt.Sprintf("amp: solo run of %s on %s wedged at cycle %d (inflight=%d)",
					bench.Name, coreCfg.Name, cycle, core.InFlight()))
			}
			lastTotal = th.Arch.Committed
			lastProgress = cycle
		}
	}

	// Final partial interval (skipped if empty).
	if th.Arch.Committed > lastCommit || len(samples) == 0 {
		takeSample()
	}

	res := SoloResult{
		Core:      coreCfg.Name,
		Bench:     bench.Name,
		Cycles:    cycle,
		Committed: th.Arch.Committed,
		EnergyNJ:  totalEnergy,
		Samples:   samples,
	}
	if cycle > 0 {
		res.IPC = float64(res.Committed) / float64(cycle)
		res.Watts = model.Watts(totalEnergy, cycle)
		if res.Watts > 0 {
			res.IPCPerWatt = res.IPC / res.Watts
		}
	}
	return res
}
