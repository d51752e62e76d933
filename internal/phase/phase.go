// Package phase implements online program-phase classification in the
// style of Sherwood, Sair & Calder ("Phase tracking and prediction",
// ISCA 2003) — reference [6] of the paper, and the phenomenon its
// fine-grained scheduler exploits.
//
// The classifier builds a branch-working-set signature per interval of
// committed instructions: a small vector of hash buckets counting
// committed branch-site occurrences. Intervals whose normalized
// signatures lie within a Manhattan-distance threshold of a known
// phase's signature are classified as that phase; otherwise a new
// phase is allocated. The signature is microarchitecture independent —
// it depends only on the committed control flow, exactly the property
// the paper wants from its monitors.
package phase

import (
	"fmt"

	"ampsched/internal/isa"
)

// SignatureBuckets is the control-flow half of the signature: hashed
// branch-site buckets, the classic footprint-friendly width.
const SignatureBuckets = 32

// SignatureLen is the full signature width: the branch-working-set
// buckets plus one dimension per instruction class. Pure control-flow
// signatures cannot separate phases whose branch sites are distinct
// but uniformly used; the composition half captures exactly the
// property the paper's own monitors observe (%INT, %FP, ...).
const SignatureLen = SignatureBuckets + int(isa.NumClasses)

// Signature is a normalized phase fingerprint: the first
// SignatureBuckets entries are the branch-working-set histogram
// (summing to 1/2 when the interval had branches) and the remaining
// entries the instruction-class mix (summing to 1/2).
type Signature [SignatureLen]float64

// Distance returns the Manhattan distance between two signatures,
// in [0, 2].
func (s *Signature) Distance(o *Signature) float64 {
	d := 0.0
	for i := range s {
		v := s[i] - o[i]
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

// Config parameterizes a Detector.
type Config struct {
	// IntervalLen is the classification interval in committed
	// instructions.
	IntervalLen uint64
	// Threshold is the Manhattan distance within which an interval
	// matches a known phase (Sherwood uses ~0.4 on normalized BBVs).
	Threshold float64
	// MaxPhases caps the phase table; further novel intervals map to
	// the nearest known phase.
	MaxPhases int
}

// DefaultConfig mirrors the literature's operating point, scaled to
// the simulator's window sizes.
func DefaultConfig() Config {
	return Config{IntervalLen: 10_000, Threshold: 0.5, MaxPhases: 32}
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	if c.IntervalLen == 0 {
		return fmt.Errorf("phase: zero IntervalLen")
	}
	if c.Threshold <= 0 || c.Threshold > 2 {
		return fmt.Errorf("phase: Threshold %g outside (0, 2]", c.Threshold)
	}
	if c.MaxPhases <= 0 {
		return fmt.Errorf("phase: non-positive MaxPhases")
	}
	return nil
}

// Transition records one classified interval.
type Transition struct {
	// EndInstr is the committed-instruction count closing the interval.
	EndInstr uint64
	// Phase is the classified phase id.
	Phase int
}

// Detector is the online classifier. Feed it committed instructions
// through Note (or install it as a cpu commit hook via Hook).
type Detector struct {
	cfg Config

	buckets  [SignatureBuckets]uint64
	classes  [isa.NumClasses]uint64
	branches uint64
	count    uint64

	table    []Signature
	current  int
	history  []Transition
	changes  uint64
	interval uint64 // completed intervals
}

// NewDetector builds a detector.
func NewDetector(cfg Config) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Detector{cfg: cfg, current: -1}
}

// Hook adapts the detector to cpu.Core.SetCommitHook.
func (d *Detector) Hook() func(class isa.Class, addr uint64) {
	return func(class isa.Class, addr uint64) { d.Note(class, addr) }
}

// Note observes one committed instruction.
func (d *Detector) Note(class isa.Class, addr uint64) {
	if class == isa.Branch {
		d.buckets[bucketOf(addr)]++
		d.branches++
	}
	if int(class) < len(d.classes) {
		d.classes[class]++
	}
	d.count++
	if d.count%d.cfg.IntervalLen == 0 {
		d.closeInterval()
	}
}

// bucketOf hashes a branch site into the signature vector.
func bucketOf(addr uint64) int {
	z := addr >> 2
	z = (z ^ (z >> 13)) * 0x9e3779b97f4a7c15
	z ^= z >> 29
	return int(z % SignatureBuckets)
}

// closeInterval classifies the finished interval.
func (d *Detector) closeInterval() {
	d.interval++
	var sig Signature
	if d.branches > 0 {
		inv := 0.5 / float64(d.branches)
		for i, b := range d.buckets {
			sig[i] = float64(b) * inv
		}
	}
	var classTotal uint64
	for _, v := range d.classes {
		classTotal += v
	}
	if classTotal > 0 {
		inv := 0.5 / float64(classTotal)
		for i, v := range d.classes {
			sig[SignatureBuckets+i] = float64(v) * inv
		}
	}
	d.buckets = [SignatureBuckets]uint64{}
	d.classes = [isa.NumClasses]uint64{}
	d.branches = 0

	best, bestDist := -1, 2.1
	for id := range d.table {
		if dist := d.table[id].Distance(&sig); dist < bestDist {
			best, bestDist = id, dist
		}
	}
	var id int
	switch {
	case best >= 0 && bestDist <= d.cfg.Threshold:
		id = best
		// Exponentially age the stored signature toward the new
		// observation so drifting phases stay matched.
		for i := range d.table[id] {
			d.table[id][i] = 0.75*d.table[id][i] + 0.25*sig[i]
		}
	case len(d.table) < d.cfg.MaxPhases:
		d.table = append(d.table, sig)
		id = len(d.table) - 1
	default:
		id = best // table full: nearest known phase
	}

	if id != d.current {
		d.changes++
		d.current = id
	}
	d.history = append(d.history, Transition{EndInstr: d.count, Phase: id})
}

// Phases returns the number of distinct phases discovered.
func (d *Detector) Phases() int { return len(d.table) }

// Changes returns how many interval boundaries changed phase.
func (d *Detector) Changes() uint64 { return d.changes }

// Intervals returns how many intervals have been classified.
func (d *Detector) Intervals() uint64 { return d.interval }

// History returns the per-interval classification sequence.
func (d *Detector) History() []Transition { return d.history }
