package cpu

import (
	"fmt"
	"math/bits"

	"ampsched/internal/branch"
	"ampsched/internal/cache"
	"ampsched/internal/isa"
)

// InstrSource supplies the dynamic instruction stream of a thread.
type InstrSource interface {
	Next(*isa.Instruction)
}

// ThreadArch is the architectural state of a thread that survives
// migration between cores: the trace position (NextSeq), the synthetic
// program counter and code-footprint geometry for instruction-cache
// modeling, and the committed-instruction counters the schedulers
// observe. Microarchitectural state (caches, predictor tables,
// in-flight instructions) deliberately does NOT migrate — that is the
// cost of a swap.
type ThreadArch struct {
	NextSeq  uint64
	PC       uint64 // byte offset within the code footprint
	CodeBase uint64
	CodeSize uint64

	Committed        uint64 //ampvet:unit instructions
	CommittedByClass [isa.NumClasses]uint64

	// SyncClasses, when non-nil, materializes lazily maintained
	// per-class counters into CommittedByClass. Engines that attribute
	// classes in deferred batches (the interval engine) install it at
	// Bind and clear it at Unbind; readers outside the engine hot path
	// call Sync before touching CommittedByClass. The detailed core
	// maintains the counters eagerly and never sets it.
	SyncClasses func() `json:"-"`
}

// Equal reports whether two arch states hold identical architectural
// counters. The SyncClasses hook is runtime wiring, not architectural
// state, and is excluded (it also makes ThreadArch non-comparable).
func (t *ThreadArch) Equal(o *ThreadArch) bool {
	t.Sync()
	o.Sync()
	return t.NextSeq == o.NextSeq && t.PC == o.PC &&
		t.CodeBase == o.CodeBase && t.CodeSize == o.CodeSize &&
		t.Committed == o.Committed && t.CommittedByClass == o.CommittedByClass
}

// Sync brings CommittedByClass up to date for engines that attribute
// classes lazily; a no-op otherwise.
func (t *ThreadArch) Sync() {
	if t.SyncClasses != nil {
		t.SyncClasses()
	}
}

// IntPct returns the percentage of committed instructions that are
// integer-class.
func (t *ThreadArch) IntPct() float64 {
	if t.Committed == 0 {
		return 0
	}
	t.Sync()
	n := t.CommittedByClass[isa.IntALU] + t.CommittedByClass[isa.IntMul] + t.CommittedByClass[isa.IntDiv]
	return 100 * float64(n) / float64(t.Committed)
}

// FPPct returns the percentage of committed instructions that are
// floating-point-class.
func (t *ThreadArch) FPPct() float64 {
	if t.Committed == 0 {
		return 0
	}
	t.Sync()
	n := t.CommittedByClass[isa.FPALU] + t.CommittedByClass[isa.FPMul] + t.CommittedByClass[isa.FPDiv]
	return 100 * float64(n) / float64(t.Committed)
}

// entry states.
const (
	stEmpty uint8 = iota
	stDispatched
	stIssued // executing or complete; doneAt tells when the result is ready
)

const noSeq = ^uint64(0)

// The reorder buffer is a ring of robSlots entries indexed by
// seq & robMask. The issue stage tracks entries in one-word bit masks
// over these slots, so Config.ROBSize, the occupancy limit, is at most
// robSlots.
const (
	robSlots = 64
	robMask  = robSlots - 1
)

type robEntry struct {
	doneAt    uint64
	readyAt   uint64 // latest doneAt of the producers that have issued
	consumers uint64 // slots of dispatched entries waiting on this one
	addr      uint64
	class     isa.Class
	state     uint8
	pending   uint8 // producers that have not issued yet
	nreads    uint8 // register operands read at issue
	misp      bool  // mispredicted branch
}

// Core is one out-of-order core instance.
type Core struct {
	cfg  *Config
	hier *cache.Hierarchy
	bp   *branch.GShare
	act  Activity

	// units is the effective execution-unit set; it starts as
	// cfg.Units and changes only through Reconfigure (core morphing).
	units [NumUnitKinds]UnitSpec

	src  InstrSource
	arch *ThreadArch

	// Reorder buffer as a ring indexed by seq & robMask. headSeq is
	// the oldest live sequence number; tailSeq the next to allocate.
	rob     [robSlots]robEntry
	headSeq uint64
	tailSeq uint64 // == next seq to dispatch into the ROB

	// Wakeup-driven issue. ready holds the slots whose operands are
	// all available. An entry whose last producer has issued waits on
	// the timing wheel until its ready cycle t, in wheel[t & (len-1)];
	// wheelAt is the first cycle the wheel has not drained. The wheel
	// spans the worst issue-to-done latency, so every pending cycle
	// lies in [wheelAt, wheelAt+len).
	ready   uint64
	wheel   []uint64
	wheelAt uint64

	// Fetch buffer (fetched, not yet dispatched).
	fq     []fetchedOp
	fqHead int
	fqLen  int

	// Resource availability.
	intRegFree int
	fpRegFree  int
	intISQFree int
	fpISQFree  int
	ldFree     int
	stFree     int

	// Functional units: for non-pipelined instances, the cycle each
	// instance frees up; for pipelined kinds, acceptances this cycle.
	busyUntil [NumUnitKinds][]uint64
	accepted  [NumUnitKinds]int

	// Front-end control.
	fetchResumeAt uint64 // no fetch before this cycle
	mispPending   bool   // a mispredicted branch is unresolved

	// committed counts instructions this core committed across all
	// threads it has run (ThreadArch.Committed migrates with the
	// thread; this stays with the engine for per-engine telemetry).
	committed uint64

	// commitHook, when set, observes every committed instruction
	// (class and address) — the tap used by hardware monitors such as
	// the phase classifier.
	commitHook func(isa.Class, uint64)

	scratch isa.Instruction
}

// SetCommitHook installs (or clears, with nil) the commit observer.
func (c *Core) SetCommitHook(h func(class isa.Class, addr uint64)) { c.commitHook = h }

type fetchedOp struct {
	seq   uint64
	dep1  uint64
	dep2  uint64
	addr  uint64
	class isa.Class
	misp  bool
}

// NewCore builds a core from cfg. The configuration is validated and
// must not change afterwards.
func NewCore(cfg *Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:   cfg,
		hier:  cache.NewHierarchy(cfg.Caches),
		bp:    branch.NewGShare(cfg.BranchHistoryBits),
		fq:    make([]fetchedOp, 2*cfg.FetchWidth),
		units: cfg.Units,
		wheel: make([]uint64, wheelSlots(&cfg.Units, &cfg.Caches)),
	}
	for k := UnitKind(0); k < NumUnitKinds; k++ {
		c.busyUntil[k] = make([]uint64, c.units[k].Count)
	}
	c.resetResources()
	return c
}

// wheelSlots returns the timing-wheel size for a unit set and cache
// hierarchy: the smallest power of two above the worst issue-to-done
// latency, a load that occupies the slowest unit and misses to memory.
func wheelSlots(units *[NumUnitKinds]UnitSpec, caches *cache.HierarchyConfig) int {
	worst := 0
	for _, u := range units {
		worst = max(worst, u.Latency)
	}
	worst += caches.L1D.HitLatency + caches.L2.HitLatency + caches.MemLatency
	n := 1
	for n <= worst {
		n <<= 1
	}
	return n
}

func (c *Core) resetResources() {
	c.intRegFree = c.cfg.IntRegs
	c.fpRegFree = c.cfg.FPRegs
	c.intISQFree = c.cfg.IntISQ
	c.fpISQFree = c.cfg.FPISQ
	c.ldFree = c.cfg.LSQLoads
	c.stFree = c.cfg.LSQStores
}

// Config returns the core's configuration.
func (c *Core) Config() *Config { return c.cfg }

// Hierarchy exposes the cache hierarchy (for power accounting and
// tests).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Activity returns the monotonic event ledger.
func (c *Core) Activity() Activity { return c.act }

// Bound reports whether a thread is currently bound.
func (c *Core) Bound() bool { return c.arch != nil }

// Arch returns the bound thread's architectural state (nil if none).
func (c *Core) Arch() *ThreadArch { return c.arch }

// InFlight returns the number of live ROB entries plus buffered
// fetched instructions.
func (c *Core) InFlight() int {
	return int(c.tailSeq-c.headSeq) + c.fqLen
}

// Bind attaches a thread to the core. The core must be empty (freshly
// created, or after Unbind).
func (c *Core) Bind(src InstrSource, arch *ThreadArch) {
	if c.arch != nil {
		panic(fmt.Sprintf("cpu: %s: Bind with thread already bound", c.cfg.Name))
	}
	if arch.CodeSize == 0 {
		panic("cpu: Bind with zero CodeSize")
	}
	c.src = src
	c.arch = arch
	c.headSeq = arch.NextSeq
	c.tailSeq = arch.NextSeq
	c.fqHead = 0
	c.fqLen = 0
	c.fetchResumeAt = 0
	c.mispPending = false
}

// Unbind squashes all in-flight work and detaches the thread,
// returning the number of squashed (fetched or dispatched but not
// committed) instructions. Cache and predictor contents stay — the
// next thread inherits a polluted core and the departing thread will
// find cold structures wherever it lands.
func (c *Core) Unbind() uint64 {
	if c.arch == nil {
		return 0
	}
	squashed := uint64(c.InFlight())
	c.act.Squashed += squashed
	for i := range c.rob {
		c.rob[i].state = stEmpty
	}
	c.headSeq = 0
	c.tailSeq = 0
	c.ready = 0
	clear(c.wheel)
	c.fqLen = 0
	c.fqHead = 0
	c.resetResources()
	for k := range c.busyUntil {
		for i := range c.busyUntil[k] {
			c.busyUntil[k][i] = 0
		}
	}
	c.src = nil
	c.arch = nil
	c.mispPending = false
	c.fetchResumeAt = 0
	return squashed
}

// StallCycle charges one frozen cycle (swap overhead). Leakage still
// accrues; no pipeline activity happens.
//
//ampvet:hotpath
func (c *Core) StallCycle() { c.act.StallCycles++ }

// Step advances the core by one cycle at global time now. Stages run
// commit -> issue -> dispatch -> fetch so results propagate with
// correct one-cycle visibility.
//
//ampvet:hotpath
func (c *Core) Step(now uint64) {
	if c.arch == nil {
		return
	}
	c.act.Cycles++
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
}

//ampvet:hotpath
func (c *Core) commit(now uint64) {
	width := c.cfg.CommitWidth
	for n := 0; n < width && c.headSeq < c.tailSeq; n++ {
		e := &c.rob[c.headSeq&robMask]
		if e.state != stIssued || e.doneAt > now {
			return
		}
		switch {
		case e.class == isa.Store:
			c.hier.WriteData(e.addr)
			c.stFree++
		case e.class == isa.Load:
			c.ldFree++
			c.intRegFree++
		case e.class.IsFP():
			c.fpRegFree++
		case e.class == isa.Branch:
			// no destination register
		default:
			c.intRegFree++
		}
		c.act.ROBReads++
		c.committed++
		c.arch.Committed++
		c.arch.CommittedByClass[e.class]++
		if c.commitHook != nil {
			c.commitHook(e.class, e.addr)
		}
		e.state = stEmpty
		c.headSeq++
	}
}

// unitFor maps an instruction class to the unit kind it occupies.
func unitFor(class isa.Class) UnitKind {
	switch class {
	case isa.Load, isa.Store:
		return UMemPort
	case isa.Branch:
		return UIntALU
	default:
		return UnitKind(class)
	}
}

// claimUnit reserves a unit of kind k at time now and returns its
// operation latency, or -1 if no instance can accept this cycle.
func (c *Core) claimUnit(k UnitKind, now uint64) int {
	spec := &c.units[k]
	if spec.Pipelined {
		if c.accepted[k] >= spec.Count {
			return -1
		}
		c.accepted[k]++
		return spec.Latency
	}
	for i := range c.busyUntil[k] {
		if c.busyUntil[k][i] <= now {
			c.busyUntil[k][i] = now + uint64(spec.Latency)
			return spec.Latency
		}
	}
	return -1
}

// wake drains the timing wheel up to cycle now into the ready mask.
// After a gap of a whole wheel or more, or a clock that restarts lower
// on a new Bind, it drains every slot once.
func (c *Core) wake(now uint64) {
	size := uint64(len(c.wheel))
	span := min(now+1-c.wheelAt, size)
	for t := now + 1 - span; t <= now; t++ {
		slot := &c.wheel[t&(size-1)]
		c.ready |= *slot
		*slot = 0
	}
	c.wheelAt = now + 1
}

// schedule makes slot ready from cycle readyAt on.
func (c *Core) schedule(slot, readyAt uint64) {
	if readyAt < c.wheelAt {
		c.ready |= 1 << slot
		return
	}
	c.wheel[readyAt&uint64(len(c.wheel)-1)] |= 1 << slot
}

// await records one source operand of the entry e in slot. A producer
// still in the ROB that has not issued takes slot as a consumer, once
// however many operands name it; one that has issued contributes its
// done cycle. A committed producer's value is in the register file.
func (c *Core) await(e *robEntry, slot, dep uint64) {
	if dep == noSeq {
		return
	}
	e.nreads++
	if dep < c.headSeq {
		return
	}
	p := &c.rob[dep&robMask]
	if p.state == stIssued {
		e.readyAt = max(e.readyAt, p.doneAt)
		return
	}
	if p.consumers&(1<<slot) == 0 {
		p.consumers |= 1 << slot
		e.pending++
	}
}

// release hands the just-issued entry e's done cycle to its consumers
// and schedules each one whose last producer e was.
func (c *Core) release(e *robEntry) {
	for m := e.consumers; m != 0; m &= m - 1 {
		slot := uint64(bits.TrailingZeros64(m))
		w := &c.rob[slot]
		w.readyAt = max(w.readyAt, e.doneAt)
		w.pending--
		if w.pending == 0 {
			c.schedule(slot, w.readyAt)
		}
	}
	e.consumers = 0
}

// issue selects up to IssueWidth ready entries oldest first, skipping
// any whose unit cannot accept an operation this cycle.
//
//ampvet:hotpath
func (c *Core) issue(now uint64) {
	for k := range c.accepted {
		c.accepted[k] = 0
	}
	c.wake(now)
	// Rotated so the head slot is bit 0, the ready mask lists entries
	// in ascending sequence order.
	head := c.headSeq & robMask
	pick := bits.RotateLeft64(c.ready, -int(head))
	for issued := 0; pick != 0 && issued < c.cfg.IssueWidth; pick &= pick - 1 {
		slot := (head + uint64(bits.TrailingZeros64(pick))) & robMask
		e := &c.rob[slot]
		kind := unitFor(e.class)
		lat := c.claimUnit(kind, now)
		if lat < 0 {
			continue
		}
		issued++
		c.ready &^= 1 << slot
		c.act.UnitOps[kind]++

		// Operand reads and issue-queue wakeup/select energy.
		if e.class.IsFP() {
			c.act.FPISQIssues++
			c.act.FPRegReads += uint64(e.nreads)
			c.fpISQFree++
		} else {
			c.act.IntISQIssues++
			c.act.IntRegReads += uint64(e.nreads)
			c.intISQFree++
		}

		switch e.class {
		case isa.Load:
			c.act.LSQSearches++
			e.doneAt = now + uint64(lat) + uint64(c.hier.ReadData(e.addr))
			c.act.IntRegWrites++
		case isa.Store:
			c.act.LSQSearches++
			// Address generation only; the cache write happens at
			// commit out of the store buffer.
			e.doneAt = now + uint64(lat)
		case isa.Branch:
			e.doneAt = now + uint64(lat)
			if e.misp {
				// The front end restarts after resolution plus the
				// refill penalty.
				c.fetchResumeAt = e.doneAt + uint64(c.cfg.MispredictPenalty)
				c.mispPending = false
			}
		default:
			e.doneAt = now + uint64(lat)
			if e.class.IsFP() {
				c.act.FPRegWrites++
			} else {
				c.act.IntRegWrites++
			}
		}
		e.state = stIssued
		c.release(e)
	}
}

func (c *Core) dispatch(now uint64) {
	_ = now
	for n := 0; n < c.cfg.DispatchWidth && c.fqLen > 0; n++ {
		op := &c.fq[c.fqHead]
		if c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) {
			return // ROB full
		}
		// Resource checks; in-order dispatch stalls on the first
		// instruction that cannot get all of its resources.
		switch {
		case op.class == isa.Load:
			if c.ldFree == 0 || c.intRegFree == 0 || c.intISQFree == 0 {
				return
			}
			c.ldFree--
			c.intRegFree--
			c.intISQFree--
			c.act.LSQWrites++
			c.act.IntISQWrites++
		case op.class == isa.Store:
			if c.stFree == 0 || c.intISQFree == 0 {
				return
			}
			c.stFree--
			c.intISQFree--
			c.act.LSQWrites++
			c.act.IntISQWrites++
		case op.class == isa.Branch:
			if c.intISQFree == 0 {
				return
			}
			c.intISQFree--
			c.act.IntISQWrites++
		case op.class.IsFP():
			if c.fpRegFree == 0 || c.fpISQFree == 0 {
				return
			}
			c.fpRegFree--
			c.fpISQFree--
			c.act.FPISQWrites++
		default: // IntALU, IntMul, IntDiv
			if c.intRegFree == 0 || c.intISQFree == 0 {
				return
			}
			c.intRegFree--
			c.intISQFree--
			c.act.IntISQWrites++
		}

		slot := op.seq & robMask
		e := &c.rob[slot]
		*e = robEntry{
			addr:  op.addr,
			class: op.class,
			state: stDispatched,
			misp:  op.misp,
		}
		c.await(e, slot, op.dep1)
		c.await(e, slot, op.dep2)
		if e.pending == 0 {
			c.schedule(slot, e.readyAt)
		}
		c.tailSeq = op.seq + 1
		c.act.Renames++
		c.act.ROBWrites++
		c.fqHead = (c.fqHead + 1) % len(c.fq)
		c.fqLen--
	}
}

// jumpTarget deterministically maps a branch site to its taken target
// offset within the thread's code footprint, 4-byte aligned.
func jumpTarget(site, codeSize uint64) uint64 {
	z := site
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return (z % codeSize) &^ 3
}

func (c *Core) fetch(now uint64) {
	if c.mispPending || now < c.fetchResumeAt {
		return
	}
	if len(c.fq)-c.fqLen < c.cfg.FetchWidth {
		return // no room for a full group
	}

	// One instruction-cache access per fetch group.
	pc := c.arch.CodeBase + c.arch.PC
	c.act.FetchGroups++
	lat := c.hier.FetchInstr(pc)
	if lat > c.cfg.Caches.L1I.HitLatency {
		// Miss: block the front end; the line is now resident so the
		// retried access hits.
		c.fetchResumeAt = now + uint64(lat)
		return
	}

	for i := 0; i < c.cfg.FetchWidth; i++ {
		in := &c.scratch
		c.src.Next(in)
		seq := c.arch.NextSeq
		c.arch.NextSeq++
		c.act.FetchedOps++

		op := fetchedOp{seq: seq, class: in.Class, addr: in.Addr, dep1: noSeq, dep2: noSeq}
		if in.Dep1 > 0 && uint64(in.Dep1) <= seq {
			op.dep1 = seq - uint64(in.Dep1)
		}
		if in.Dep2 > 0 && uint64(in.Dep2) <= seq {
			op.dep2 = seq - uint64(in.Dep2)
		}

		endGroup := false
		if in.Class == isa.Branch {
			c.act.BPredOps++
			pred := c.bp.Predict(in.Addr)
			c.bp.Update(in.Addr, in.Taken)
			op.misp = pred != in.Taken
			if in.Taken {
				c.arch.PC = jumpTarget(in.Addr, c.arch.CodeSize)
				endGroup = true // taken branches end the fetch group
			} else {
				c.advancePC()
			}
			if op.misp {
				c.mispPending = true
				endGroup = true
			}
		} else {
			c.advancePC()
		}

		tail := (c.fqHead + c.fqLen) % len(c.fq)
		c.fq[tail] = op
		c.fqLen++
		if endGroup {
			break
		}
	}
}

func (c *Core) advancePC() {
	c.arch.PC += 4
	if c.arch.PC >= c.arch.CodeSize {
		c.arch.PC = 0
	}
}
