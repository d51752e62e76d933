// Package pairstore is the content-addressed store of pair records
// that the server and the experiment sweeps share.
//
// A simulation's outcome is a pure function of (benchmark pair, core
// configurations, scheduler suite, fidelity, seeds, swap overhead, run
// lengths) — the determinism the ampvet suite enforces — so a
// canonical hash of those inputs is a complete identity for the
// result: same key, same bytes, forever. The server's cache, its
// /v1/results API, cross-restart persistence and sweep resume all
// address records by this key.
package pairstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ampsched/internal/cpu"
)

// SchemaVersion invalidates every cached result when the simulation
// or result encoding changes incompatibly. Bump on any change to the
// simulator's observable output for identical inputs.
const SchemaVersion = 1

// KeySpec is the canonical identity of one pair run under the
// three-scheduler comparison suite. Field order is fixed (struct
// order) and encoding/json emits struct fields in declaration order,
// so the marshaled bytes are canonical.
type KeySpec struct {
	Version       int     `json:"v"`
	CoreDigest    string  `json:"cores"`
	BenchA        string  `json:"bench_a"`
	BenchB        string  `json:"bench_b"`
	PairIndex     int     `json:"pair_index"`
	Seed          uint64  `json:"seed"`
	InstrLimit    uint64  `json:"instr_limit"`
	ContextSwitch uint64  `json:"context_switch"`
	SwapOverhead  uint64  `json:"swap_overhead"`
	ProfileLimit  uint64  `json:"profile_limit"`
	CycleBudget   uint64  `json:"cycle_budget"`
	Fidelity      string  `json:"fidelity"`
	FaultRate     float64 `json:"fault_rate"`
	FaultSeed     uint64  `json:"fault_seed"`
	// Topology identifies an N×M machine for nxm scaling units; empty
	// for dual-core pair runs, so their marshaled keys (and therefore
	// every pre-existing cache entry) are unchanged.
	Topology string `json:"topology,omitempty"`
	// Record names a record kind other than the server's PairResult:
	// "outcome" marks a sweep's whole PairOutcome. The server never
	// sets it, so its keys are unchanged.
	Record string `json:"record,omitempty"`
	// ProfileWindow is the context-switch window the §V profile behind
	// the HPE estimator was sampled at. A sweep sets it, and
	// ProfileLimit, from the runner that collected the profile, which
	// can differ from the one that ran the pair. The server never sets
	// it.
	ProfileWindow uint64 `json:"profile_window,omitempty"`
}

// CacheKey hashes the spec into its content address (hex SHA-256,
// filename- and URL-safe).
func CacheKey(spec KeySpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// KeySpec is plain data; Marshal cannot fail. Keep the
		// invariant loud instead of silently colliding keys.
		panic(fmt.Sprintf("pairstore: marshaling KeySpec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CoreDigest canonically hashes the two core configurations so a
// change to Table I/II parameters changes every result key.
func CoreDigest(intCfg, fpCfg *cpu.Config) string {
	b, err := json.Marshal([2]*cpu.Config{intCfg, fpCfg})
	if err != nil {
		panic(fmt.Sprintf("pairstore: marshaling core configs: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]) // 64 bits is plenty for a version tag
}
