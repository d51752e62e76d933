// Package cpu implements the cycle-level out-of-order core model that
// stands in for the SESC simulator of §IV.
//
// A Core is trace driven: it pulls dynamic instructions from an
// InstrSource (a workload generator bound by the AMP system), moves
// them through fetch, dispatch (rename + queue allocation), issue to
// functional units, and in-order commit, and charges every structure
// access to an Activity ledger that the power model converts into
// energy. The two core personalities of the paper — an INT core with a
// strong integer datapath and a weak FP datapath, and an FP core with
// the opposite — are expressed purely as Config data (Tables I and II)
// over the same pipeline code.
package cpu

import (
	"fmt"

	"ampsched/internal/cache"
)

// UnitKind enumerates the execution resources an instruction can
// occupy. The first six mirror isa.Class order so classes map to units
// by index; MemPort is the address-generation/cache port used by loads
// and stores.
type UnitKind int

// Unit kinds.
const (
	UIntALU UnitKind = iota
	UIntMul
	UIntDiv
	UFPALU
	UFPMul
	UFPDiv
	UMemPort
	NumUnitKinds
)

var unitNames = [NumUnitKinds]string{
	"IntALU", "IntMul", "IntDiv", "FPALU", "FPMul", "FPDiv", "MemPort",
}

// String returns the unit kind's name.
func (k UnitKind) String() string {
	if int(k) < len(unitNames) {
		return unitNames[k]
	}
	return fmt.Sprintf("UnitKind(%d)", int(k))
}

// UnitSpec describes the execution units of one kind (paper Table II):
// how many instances exist, their latency in cycles, and whether each
// instance is pipelined (accepts a new operation every cycle) or
// blocks for the full latency.
type UnitSpec struct {
	Count     int
	Latency   int
	Pipelined bool
}

// Config is a complete core description (paper Tables I and II).
type Config struct {
	Name string

	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	ROBSize   int
	IntISQ    int // integer issue-queue entries (also memory, branch)
	FPISQ     int
	LSQLoads  int
	LSQStores int
	IntRegs   int // integer physical/rename registers
	FPRegs    int

	Units [NumUnitKinds]UnitSpec

	// MispredictPenalty is the front-end refill delay, in cycles,
	// added after a mispredicted branch resolves.
	MispredictPenalty int

	// BranchHistoryBits sizes the gshare predictor (2^bits counters).
	BranchHistoryBits uint

	Caches cache.HierarchyConfig

	// FreqGHz converts cycles to seconds for power computations.
	//ampvet:unit cycles_per_second
	FreqGHz float64
}

// Validate reports the first problem with the configuration.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("cpu: config with empty name")
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize}, {"IntISQ", c.IntISQ}, {"FPISQ", c.FPISQ},
		{"LSQLoads", c.LSQLoads}, {"LSQStores", c.LSQStores},
		{"IntRegs", c.IntRegs}, {"FPRegs", c.FPRegs},
		{"MispredictPenalty", c.MispredictPenalty},
	} {
		if v.val <= 0 {
			return fmt.Errorf("cpu: %s: %s must be positive (got %d)", c.Name, v.name, v.val)
		}
	}
	if c.ROBSize > robSlots {
		return fmt.Errorf("cpu: %s: ROBSize %d exceeds the %d-slot reorder buffer", c.Name, c.ROBSize, robSlots)
	}
	for k := UnitKind(0); k < NumUnitKinds; k++ {
		u := c.Units[k]
		if u.Count <= 0 || u.Latency <= 0 {
			return fmt.Errorf("cpu: %s: unit %s needs positive count and latency (got %+v)",
				c.Name, k, u)
		}
	}
	if c.FreqGHz <= 0 {
		return fmt.Errorf("cpu: %s: FreqGHz must be positive", c.Name)
	}
	if c.BranchHistoryBits == 0 {
		return fmt.Errorf("cpu: %s: BranchHistoryBits must be positive", c.Name)
	}
	if err := c.Caches.L1I.Validate(); err != nil {
		return fmt.Errorf("cpu: %s: %w", c.Name, err)
	}
	if err := c.Caches.L1D.Validate(); err != nil {
		return fmt.Errorf("cpu: %s: %w", c.Name, err)
	}
	if err := c.Caches.L2.Validate(); err != nil {
		return fmt.Errorf("cpu: %s: %w", c.Name, err)
	}
	if c.Caches.MemLatency <= 0 {
		return fmt.Errorf("cpu: %s: MemLatency must be positive", c.Name)
	}
	return nil
}

// defaultCaches returns the Table I hierarchy shared by both cores:
// 4 KB IL1, 4 KB DL1, 128 KB L2.
func defaultCaches() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		L1I:        cache.Config{Name: "IL1", SizeBytes: 4 << 10, LineBytes: 32, Ways: 2, HitLatency: 1},
		L1D:        cache.Config{Name: "DL1", SizeBytes: 4 << 10, LineBytes: 32, Ways: 2, HitLatency: 1},
		L2:         cache.Config{Name: "L2", SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, HitLatency: 10},
		MemLatency: 100,
	}
}

// FPCoreConfig returns the FP-flavored core of Tables I and II: strong
// (pipelined, multi-unit) floating-point datapath, weak (single,
// non-pipelined) integer units, FP-biased register and issue-queue
// sizing.
func FPCoreConfig() *Config {
	cfg := &Config{
		Name:          "FP",
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		ROBSize:       64,
		IntISQ:        12,
		FPISQ:         24,
		LSQLoads:      16,
		LSQStores:     16,
		IntRegs:       40,
		FPRegs:        68,
		Units: [NumUnitKinds]UnitSpec{
			UIntALU:  {Count: 1, Latency: 2, Pipelined: false},
			UIntMul:  {Count: 1, Latency: 3, Pipelined: false},
			UIntDiv:  {Count: 1, Latency: 12, Pipelined: false},
			UFPALU:   {Count: 2, Latency: 4, Pipelined: true},
			UFPMul:   {Count: 1, Latency: 4, Pipelined: true},
			UFPDiv:   {Count: 1, Latency: 12, Pipelined: true},
			UMemPort: {Count: 2, Latency: 1, Pipelined: true},
		},
		MispredictPenalty: 10,
		BranchHistoryBits: 12,
		Caches:            defaultCaches(),
		FreqGHz:           2.0,
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

// IntCoreConfig returns the INT-flavored core of Tables I and II:
// strong integer datapath, weak floating-point units, INT-biased
// register and issue-queue sizing.
func IntCoreConfig() *Config {
	cfg := &Config{
		Name:          "INT",
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		ROBSize:       64,
		IntISQ:        24,
		FPISQ:         12,
		LSQLoads:      16,
		LSQStores:     16,
		IntRegs:       68,
		FPRegs:        40,
		Units: [NumUnitKinds]UnitSpec{
			UIntALU:  {Count: 2, Latency: 1, Pipelined: true},
			UIntMul:  {Count: 1, Latency: 3, Pipelined: true},
			UIntDiv:  {Count: 1, Latency: 12, Pipelined: true},
			UFPALU:   {Count: 1, Latency: 4, Pipelined: false},
			UFPMul:   {Count: 1, Latency: 3, Pipelined: false},
			UFPDiv:   {Count: 1, Latency: 12, Pipelined: false},
			UMemPort: {Count: 2, Latency: 1, Pipelined: true},
		},
		MispredictPenalty: 10,
		BranchHistoryBits: 12,
		Caches:            defaultCaches(),
		FreqGHz:           2.0,
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}
