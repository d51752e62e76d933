package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/workload"
)

// JobSpec is the POST /v1/jobs request body: a pair sweep (Pairs
// random pairs drawn from Seed) or an explicit pair list, each pair
// simulated under the paper's three schedulers (proposed, HPE, Round
// Robin) and compared. Zero fields inherit the server's base options.
type JobSpec struct {
	// Pairs asks for this many random pairs (ignored when PairNames is
	// set).
	Pairs int `json:"pairs,omitempty"`
	// PairNames lists explicit benchmark pairs, e.g. [["gcc","swim"]].
	PairNames [][2]string `json:"pair_names,omitempty"`
	// Seed overrides the base RNG seed (0 = inherit).
	Seed uint64 `json:"seed,omitempty"`
	// InstrLimit overrides the per-run instruction limit (0 = inherit).
	InstrLimit uint64 `json:"instr_limit,omitempty"`
	// ContextSwitch overrides the coarse decision interval (0 = inherit).
	ContextSwitch uint64 `json:"context_switch,omitempty"`
	// SwapOverhead overrides the reconfiguration cost (0 = inherit).
	SwapOverhead uint64 `json:"swap_overhead,omitempty"`
	// Fidelity selects the engine: detailed | interval | sampled
	// ("" = inherit).
	Fidelity string `json:"fidelity,omitempty"`
	// FaultRate overrides the fault-injection rate (nil = inherit; an
	// explicit 0 turns injection off for this job).
	FaultRate *float64 `json:"fault_rate,omitempty"`
	// FaultSeed overrides the fault-plan seed (0 = inherit). At zero
	// fault rate the simulation never reads it.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// NXM switches the job from a pair sweep to the nxm manycore
	// scaling sweep: one result per core count, each comparing every
	// N×M policy. Pairs/PairNames are ignored when set.
	NXM *NXMJobSpec `json:"nxm,omitempty"`
	// Priority orders queued jobs (higher first).
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the whole job's run time (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// NXMJobSpec parameterizes an nxm scaling job. Zero fields inherit
// the server's base options, which in turn default to the experiment's
// canonical sweep (4/16/64/256 cores, 8 threads/core, 200k cycles,
// 10k-cycle quantum, interval fidelity).
type NXMJobSpec struct {
	// Cores lists the machine sizes to sweep.
	Cores []int `json:"cores,omitempty"`
	// ThreadsPerCore oversubscribes each machine.
	ThreadsPerCore int `json:"threads_per_core,omitempty"`
	// Cycles is the fixed per-run cycle horizon.
	Cycles uint64 `json:"cycles,omitempty"`
	// Quantum is the scheduler decision quantum in cycles.
	Quantum uint64 `json:"quantum,omitempty"`
}

// resolvePairs expands the spec into the concrete pair list.
func (sp *JobSpec) resolvePairs(opt experiments.Options) ([]experiments.Pair, error) {
	if len(sp.PairNames) > 0 {
		pairs := make([]experiments.Pair, 0, len(sp.PairNames))
		for _, names := range sp.PairNames {
			a, err := workload.ByName(names[0])
			if err != nil {
				return nil, err
			}
			b, err := workload.ByName(names[1])
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, experiments.Pair{A: a, B: b})
		}
		return pairs, nil
	}
	n := sp.Pairs
	if n <= 0 {
		return nil, fmt.Errorf("server: job needs pairs > 0 or pair_names")
	}
	return experiments.RandomPairs(n, opt.Seed), nil
}

// SchedResult is one scheduler's outcome on one pair.
type SchedResult struct {
	Cycles     uint64     `json:"cycles"`
	Swaps      uint64     `json:"swaps"`
	IPCPerWatt [2]float64 `json:"ipc_per_watt"`
	Committed  [2]uint64  `json:"committed"`
}

// PairResult is one pair's comparison record — the unit the cache
// stores and the stream endpoint emits.
type PairResult struct {
	Index int    `json:"index"`
	Pair  string `json:"pair"`
	Key   string `json:"key"`

	Proposed SchedResult `json:"proposed"`
	HPE      SchedResult `json:"hpe"`
	RR       SchedResult `json:"rr"`

	// WeightedVsHPEPct / WeightedVsRRPct are the paper's Fig. 7/8
	// per-pair weighted IPC/Watt improvements of the proposed scheme.
	WeightedVsHPEPct float64 `json:"weighted_vs_hpe_pct"`
	WeightedVsRRPct  float64 `json:"weighted_vs_rr_pct"`
	GeoVsHPEPct      float64 `json:"geo_vs_hpe_pct"`
	GeoVsRRPct       float64 `json:"geo_vs_rr_pct"`

	// NXM carries the result of one nxm scaling rung; the dual-core
	// scheduler fields above are zero when it is set.
	NXM *experiments.NXMUnit `json:"nxm,omitempty"`

	// Failed marks a degraded pair (wedged or panicking simulation);
	// Err carries the reason and the numeric fields are unusable.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"error,omitempty"`

	// Cached reports whether this record was served from the result
	// cache (set per response, not persisted).
	Cached bool `json:"cached,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} response body.
type JobStatus struct {
	ID        string       `json:"id"`
	State     string       `json:"state"`
	Pairs     int          `json:"pairs"`
	Completed int          `json:"completed"`
	Failed    int          `json:"failed"`
	CacheHits int          `json:"cache_hits"`
	Recovered bool         `json:"recovered,omitempty"`
	Error     string       `json:"error,omitempty"`
	Results   []PairResult `json:"results,omitempty"`
}

// jobState is a job's lifecycle position: pending → running →
// {done, failed}; canceled can follow pending or running.
type jobState int32

const (
	statePending jobState = iota
	stateRunning
	stateDone
	stateFailed
	stateCanceled
)

// String renders the state for status APIs.
func (s jobState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateCanceled:
		return "canceled"
	}
	return fmt.Sprintf("jobState(%d)", int32(s))
}

// terminal reports whether s is a final state.
func (s jobState) terminal() bool { return s >= stateDone }

// jobEntry is one submitted job: its place in the queue, its context,
// and the state and results the API reports.
type jobEntry struct {
	id   string // set once, at admission
	spec JobSpec

	// recovered marks a job re-enqueued (or re-registered) from the
	// journal after a restart.
	recovered bool

	// Queue position, set at admission and guarded by Server.qmu: seq
	// orders equal priorities by arrival, index is the job's slot in
	// the pending heap (-1 once popped, or never queued).
	seq      uint64
	index    int
	enqueued time.Time
	// ctx ends when the job settles or the server aborts its jobs;
	// cancel, set with it at admission, ends it.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     jobState
	plan      *jobPlan // what the job runs; dropped when it settles
	results   []PairResult
	cacheHits int
	failed    int
	errMsg    string
	notify    chan struct{} // closed and replaced on every mutation
}

func newJobEntry(spec JobSpec) *jobEntry {
	return &jobEntry{spec: spec, index: -1, notify: make(chan struct{})}
}

// wake closes the current notify channel so streamers re-check state.
// Must be called with j.mu held.
func (j *jobEntry) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendResult records one completed pair and wakes streamers.
func (j *jobEntry) appendResult(r PairResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = append(j.results, r)
	if r.Cached {
		j.cacheHits++
	}
	if r.Failed {
		j.failed++
	}
	j.wake()
}

// status snapshots the job for the API. includeResults controls the
// potentially large Results array.
func (j *jobEntry) status(includeResults bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state.String(),
		Pairs:     j.pairCountLocked(),
		Completed: len(j.results),
		Failed:    j.failed,
		CacheHits: j.cacheHits,
		Recovered: j.recovered,
		Error:     j.errMsg,
	}
	if includeResults {
		st.Results = append([]PairResult(nil), j.results...)
	}
	return st
}

// pairCountLocked derives the expected result count from the spec:
// rungs for an nxm job, pairs otherwise.
func (j *jobEntry) pairCountLocked() int {
	if j.spec.NXM != nil {
		if n := len(j.spec.NXM.Cores); n > 0 {
			return n
		}
		return len(experiments.ResolveNXM(experiments.Options{}).Cores)
	}
	if len(j.spec.PairNames) > 0 {
		return len(j.spec.PairNames)
	}
	return j.spec.Pairs
}
