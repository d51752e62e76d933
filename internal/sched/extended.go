package sched

import (
	"fmt"

	"ampsched/internal/amp"
	"ampsched/internal/cache"
)

// ExtendedConfig parameterizes the §VII extension the paper leaves as
// future work: "We plan to improve upon these scenarios by including
// the performance (IPC) and last-level cache miss rate information
// into our swapping conditions." A composition-triggered swap is
// suppressed when the thread that would migrate to its affine core is
// memory-bound — its windows show a high L2 miss rate or an IPC too
// low for the execution-unit asymmetry to matter.
type ExtendedConfig struct {
	// Base is the underlying Fig. 5 configuration.
	Base ProposedConfig
	// MemBoundL2MissRate: at or above this window L2 miss rate the
	// migrating thread is considered memory-bound and the swap is
	// vetoed.
	MemBoundL2MissRate float64
	// MemBoundIPC: below this window IPC the thread is stall-bound
	// and the swap is vetoed.
	MemBoundIPC float64
}

// DefaultExtendedConfig returns the extension's operating point.
func DefaultExtendedConfig() ExtendedConfig {
	return ExtendedConfig{
		Base:               DefaultProposedConfig(),
		MemBoundL2MissRate: 0.30,
		MemBoundIPC:        0.10,
	}
}

// Validate reports the first problem with the configuration.
func (c *ExtendedConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.MemBoundL2MissRate < 0 || c.MemBoundL2MissRate > 1 {
		return fmt.Errorf("sched: extended: MemBoundL2MissRate %g outside [0,1]", c.MemBoundL2MissRate)
	}
	if c.MemBoundIPC < 0 {
		return fmt.Errorf("sched: extended: negative MemBoundIPC %g", c.MemBoundIPC)
	}
	return nil
}

// memGuard is the §VII memory guard of ProposedExt. It observes each
// closed window's L2 miss rate and IPC per thread, and vetoes a rule-2
// surge whose migrating thread is memory-bound.
type memGuard struct {
	l2MissRate float64 // ExtendedConfig.MemBoundL2MissRate
	ipc        float64 // ExtendedConfig.MemBoundIPC
	mem        [2]threadMemState
	vetoes     *uint64 // the owning scheduler's veto count
}

// threadMemState tracks one thread's window-grain memory behavior.
type threadMemState struct {
	lastL2     cache.Stats
	lastCore   int
	lastCycle  uint64
	lastCommit uint64
	l2MissRate float64
	windowIPC  float64
	haveOne    bool
}

// reset re-arms both threads against the view's current counters.
func (g *memGuard) reset(v amp.View) {
	for t := 0; t < 2; t++ {
		core := v.CoreOfThread(t)
		g.mem[t] = threadMemState{
			lastL2:     v.L2Stats(core),
			lastCore:   core,
			lastCycle:  v.Cycle(),
			lastCommit: v.Arch(t).Committed,
		}
	}
}

// observe updates thread t's window-grain L2 miss rate and IPC; call
// when t's commit window closes.
func (g *memGuard) observe(v amp.View, t int) {
	core := v.CoreOfThread(t)
	cur := v.L2Stats(core)
	m := &g.mem[t]
	if core != m.lastCore {
		// The thread migrated since the last window: the delta would
		// mix two cores' counters, so just re-arm.
		m.lastL2 = cur
		m.lastCore = core
		m.lastCycle = v.Cycle()
		m.lastCommit = v.Arch(t).Committed
		m.haveOne = false
		return
	}
	d := cur.Sub(m.lastL2)
	cycles := v.Cycle() - m.lastCycle
	commits := v.Arch(t).Committed - m.lastCommit
	m.l2MissRate = d.MissRate()
	if cycles > 0 {
		m.windowIPC = float64(commits) / float64(cycles)
	}
	m.haveOne = true
	m.lastL2 = cur
	m.lastCore = core
	m.lastCycle = v.Cycle()
	m.lastCommit = v.Arch(t).Committed
}

// veto reports whether a rule-2 surge that would move thread t to its
// affine core becomes a stay vote, and counts each veto. It does when
// t's last window looked memory- or stall-bound and the partner is
// content where it is (partnerContent): rule 2 exists because a swap
// helps both threads, so a memory-bound beneficiary alone is not a
// reason to deny the partner a core it craves.
func (g *memGuard) veto(t int, partnerContent bool) bool {
	m := &g.mem[t]
	memBound := m.haveOne && (m.l2MissRate >= g.l2MissRate || m.windowIPC < g.ipc)
	if memBound && partnerContent {
		*g.vetoes++
		return true
	}
	return false
}
