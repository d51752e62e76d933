// Package monitor implements the low-cost hardware performance
// monitors of §VI-A: per-thread committed-instruction window trackers
// that expose the instruction composition (%INT, %FP) of the most
// recent window, and the majority history voter of §VI-B that
// stabilizes reconfiguration decisions across program-phase noise.
package monitor

import (
	"fmt"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
)

// Sample is the composition of one completed commit window.
type Sample struct {
	// WindowEnd is the thread-local committed-instruction count at
	// which the window closed.
	WindowEnd uint64
	IntPct    float64
	FPPct     float64
}

// Observer is the sampling interface schedulers poll: a WindowTracker,
// or a fault-injection wrapper around one (fault.FaultyObserver) that
// perturbs the samples before the scheduler sees them.
type Observer interface {
	// Window returns the configured window size in committed
	// instructions.
	Window() uint64
	// Reset re-arms the observer against a thread's current counters.
	Reset(arch *cpu.ThreadArch)
	// Observe polls the thread's counters and reports a closed window's
	// sample, if any.
	Observe(arch *cpu.ThreadArch) (Sample, bool)
	// Latest returns the most recently reported sample and whether any
	// has been reported yet.
	Latest() (Sample, bool)
}

// WindowTracker watches one thread's committed-instruction counters
// and reports a Sample each time a full window of committed
// instructions has elapsed. The tracker is a pure observer: it reads
// the counters the core already maintains (the paper's "simple and
// low-cost hardware performance counters").
type WindowTracker struct {
	window    uint64
	nextEdge  uint64
	lastTotal uint64
	lastClass [isa.NumClasses]uint64
	latest    Sample
	haveOne   bool
}

// NewWindowTracker returns a tracker with the given window size in
// committed instructions (paper default: 1000).
func NewWindowTracker(window uint64) *WindowTracker {
	w := &WindowTracker{}
	w.Init(window)
	return w
}

// Init re-arms the tracker in place with the given window size,
// exactly as NewWindowTracker would: schedulers embed trackers by
// value so a per-run Reset allocates nothing.
func (w *WindowTracker) Init(window uint64) {
	if window == 0 {
		panic("monitor: zero window size")
	}
	*w = WindowTracker{window: window, nextEdge: window}
}

// Window returns the configured window size.
func (w *WindowTracker) Window() uint64 { return w.window }

var _ Observer = (*WindowTracker)(nil)

// Reset re-arms the tracker against a thread's current counters.
func (w *WindowTracker) Reset(arch *cpu.ThreadArch) {
	arch.Sync()
	w.lastTotal = arch.Committed
	w.lastClass = arch.CommittedByClass
	w.nextEdge = arch.Committed + w.window
	w.haveOne = false
	w.latest = Sample{}
}

// Observe checks the thread's counters; if at least one full window
// has completed since the last observation it closes the window,
// stores it as Latest and returns (sample, true). Multiple elapsed
// windows collapse into one sample covering them all (the monitor
// hardware is polled, not interrupt-driven).
//
//ampvet:hotpath
func (w *WindowTracker) Observe(arch *cpu.ThreadArch) (Sample, bool) {
	if arch.Committed < w.nextEdge {
		return Sample{}, false
	}
	arch.Sync()
	committed := arch.Committed - w.lastTotal
	var intN, fpN uint64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		d := arch.CommittedByClass[c] - w.lastClass[c]
		if c.IsInt() {
			intN += d
		} else if c.IsFP() {
			fpN += d
		}
	}
	s := Sample{WindowEnd: arch.Committed}
	if committed > 0 {
		s.IntPct = 100 * float64(intN) / float64(committed)
		s.FPPct = 100 * float64(fpN) / float64(committed)
	}
	w.lastTotal = arch.Committed
	w.lastClass = arch.CommittedByClass
	w.nextEdge = arch.Committed + w.window
	w.latest = s
	w.haveOne = true
	return s, true
}

// Latest returns the most recently closed window's sample and whether
// any window has closed yet.
func (w *WindowTracker) Latest() (Sample, bool) { return w.latest, w.haveOne }

// NextEdge returns the committed-instruction count at which the next
// window closes: Observe reports nothing and changes nothing below it.
func (w *WindowTracker) NextEdge() uint64 { return w.nextEdge }

// Voter is the history-depth majority filter of §VI-B: the tentative
// per-window decisions (swap / stay) of the last n windows are kept,
// and a reconfiguration is triggered only when a strict majority of
// them voted to swap.
type Voter struct {
	depth int
	ring  []bool
	n     int
	head  int

	// ringArr backs ring for the common shallow depths (the paper
	// sweeps 5 and 10), so value-embedded voters re-Init without
	// allocating.
	ringArr [16]bool
}

// NewVoter returns a voter over the last depth tentative decisions
// (paper default: 5).
func NewVoter(depth int) *Voter {
	v := &Voter{}
	v.Init(depth)
	return v
}

// Init re-arms the voter in place with the given history depth,
// exactly as NewVoter would; the vote ring is reused (or taken from
// the inline array) when it is large enough.
func (v *Voter) Init(depth int) {
	if depth <= 0 {
		panic(fmt.Sprintf("monitor: invalid history depth %d", depth))
	}
	v.depth = depth
	v.n = 0
	v.head = 0
	switch {
	case depth <= len(v.ringArr):
		v.ring = v.ringArr[:depth]
	case cap(v.ring) >= depth:
		v.ring = v.ring[:depth]
	default:
		v.ring = make([]bool, depth)
	}
}

// Depth returns the configured history depth.
func (v *Voter) Depth() int { return v.depth }

// Len returns the number of votes currently held.
func (v *Voter) Len() int { return v.n }

// Push records a tentative decision.
func (v *Voter) Push(swap bool) {
	v.ring[v.head] = swap
	v.head = (v.head + 1) % v.depth
	if v.n < v.depth {
		v.n++
	}
}

// Majority reports whether the history is full and a strict majority
// of the held votes favor swapping.
func (v *Voter) Majority() bool {
	if v.n < v.depth {
		return false
	}
	c := 0
	for _, b := range v.ring {
		if b {
			c++
		}
	}
	return 2*c > v.depth
}

// Clear discards all held votes (called after a swap so the new phase
// is judged afresh).
func (v *Voter) Clear() {
	v.n = 0
	v.head = 0
}
