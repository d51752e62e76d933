package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ampsched/internal/jobqueue"
	"ampsched/internal/wal"
)

// The durable job journal. When Config.JournalDir is set, every job
// transition is appended to a write-ahead log (internal/wal) so a
// crashed server can be restarted without losing acknowledged work:
//
//   - submit is journaled (append + fsync) before POST /v1/jobs
//     returns 202 — acknowledged implies journaled;
//   - terminal states (done / failed / canceled) are journaled after
//     the result cache has been flushed, so a job the journal calls
//     done has durable result bytes;
//   - Recover replays the journal, re-registers terminal jobs, and
//     re-enqueues every job that never reached a terminal record.
//     Re-enqueued jobs are idempotent: each pair is content-addressed
//     (KeySpec), so pairs that finished before the crash are served
//     from the persisted cache, not re-simulated.
//
// A torn append (crash or injected fault mid-frame) follows the WAL's
// contract: the writer retries with a fresh frame and replay resyncs
// past the garbage, so at most duplicate records appear — never a
// half-applied state, because replay folds records by job id with
// terminal-wins semantics.

// Journal record types.
const (
	recSubmit byte = 1 // payload: submitRecord
	recStart  byte = 2 // payload: idRecord
	recDone   byte = 3 // payload: idRecord
	recFail   byte = 4 // payload: failRecord
	recCancel byte = 5 // payload: idRecord
)

type submitRecord struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
}

type idRecord struct {
	ID string `json:"id"`
}

type failRecord struct {
	ID    string `json:"id"`
	Error string `json:"error,omitempty"`
}

// journalAppendRetries bounds the torn-write retry loop. Each retry
// writes a complete fresh frame; replay CRC-skips any torn prefix.
const journalAppendRetries = 8

// appendJournal appends one record, retrying torn/refused writes, then
// fsyncs. A nil journal (journaling disabled) is a no-op.
func (s *Server) appendJournal(typ byte, payload any) error {
	if s.journal == nil {
		return nil
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("server: marshaling journal record: %w", err)
	}
	rec := wal.Record{Type: typ, Data: data}
	for attempt := 1; ; attempt++ {
		if err = s.journal.Append(rec); err == nil {
			break
		}
		if attempt >= journalAppendRetries {
			return fmt.Errorf("server: journal append failed after %d attempts: %w", attempt, err)
		}
	}
	for attempt := 1; ; attempt++ {
		if err = s.journal.Sync(); err == nil {
			return nil
		}
		if attempt >= journalAppendRetries {
			return fmt.Errorf("server: journal sync failed after %d attempts: %w", attempt, err)
		}
	}
}

// journalTerminal records a job's terminal state. Best-effort beyond
// the retry loop: a lost terminal record only means the job re-runs
// (idempotently) after a crash, never that work is lost.
func (s *Server) journalTerminal(id string, state jobqueue.State, errMsg string) {
	var err error
	switch state {
	case jobqueue.StateDone:
		err = s.appendJournal(recDone, idRecord{ID: id})
	case jobqueue.StateFailed:
		err = s.appendJournal(recFail, failRecord{ID: id, Error: errMsg})
	case jobqueue.StateCanceled:
		err = s.appendJournal(recCancel, idRecord{ID: id})
	}
	if err != nil {
		s.journalErrors.Inc()
	}
}

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Jobs is the number of distinct job ids seen in the journal.
	Jobs int
	// Requeued counts non-terminal jobs re-enqueued for execution.
	Requeued int
	// Terminal counts jobs re-registered in their final state.
	Terminal int
	// Replay carries the WAL-level damage accounting (dropped records,
	// quarantined segments).
	Replay wal.ReplayStats
}

// recoveredJob folds a job's journal records.
type recoveredJob struct {
	spec     JobSpec
	hasSpec  bool
	state    jobqueue.State
	terminal bool
	errMsg   string
	order    int
}

// Recover replays the job journal and restores server state: jobs
// with a terminal record come back queryable in that state; jobs
// without one are re-enqueued (counted by server.jobs_recovered).
// Corrupt journal segments are quarantined by the WAL layer, never
// fatal. Call once, after Cache().Load() and before serving traffic.
func (s *Server) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.journal == nil {
		return stats, nil
	}
	jobs := make(map[string]*recoveredJob)
	get := func(id string) *recoveredJob {
		rj, ok := jobs[id]
		if !ok {
			rj = &recoveredJob{state: jobqueue.StatePending, order: len(jobs)}
			jobs[id] = rj
		}
		return rj
	}
	replay, err := wal.Replay(s.journal.Dir(), func(r wal.Record) error {
		switch r.Type {
		case recSubmit:
			var sr submitRecord
			if err := json.Unmarshal(r.Data, &sr); err != nil || sr.ID == "" {
				return nil // damaged payload: skip, like a CRC miss
			}
			rj := get(sr.ID)
			rj.spec, rj.hasSpec = sr.Spec, true
		case recStart:
			var ir idRecord
			if err := json.Unmarshal(r.Data, &ir); err != nil || ir.ID == "" {
				return nil
			}
			if rj := get(ir.ID); !rj.terminal {
				rj.state = jobqueue.StateRunning
			}
		case recDone:
			var ir idRecord
			if err := json.Unmarshal(r.Data, &ir); err != nil || ir.ID == "" {
				return nil
			}
			rj := get(ir.ID)
			rj.state, rj.terminal = jobqueue.StateDone, true
		case recFail:
			var fr failRecord
			if err := json.Unmarshal(r.Data, &fr); err != nil || fr.ID == "" {
				return nil
			}
			rj := get(fr.ID)
			rj.state, rj.terminal, rj.errMsg = jobqueue.StateFailed, true, fr.Error
		case recCancel:
			var ir idRecord
			if err := json.Unmarshal(r.Data, &ir); err != nil || ir.ID == "" {
				return nil
			}
			rj := get(ir.ID)
			rj.state, rj.terminal = jobqueue.StateCanceled, true
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("server: replaying job journal: %w", err)
	}
	stats.Replay = replay
	stats.Jobs = len(jobs)

	// Resume the id sequence past everything journaled, so new jobs
	// never collide with recovered ones. Fleet-mode ids carry this
	// node's namespace prefix; ids from another namespace (a journal
	// dir reused across identities) cannot collide with minted ids
	// anyway, so they are skipped.
	var maxID uint64
	for id := range jobs { //ampvet:allow determinism max over ids is order-independent
		if s.idPrefix != "" && !strings.HasPrefix(id, s.idPrefix) {
			continue
		}
		seq := strings.TrimPrefix(id, s.idPrefix)
		if n, perr := strconv.ParseUint(seq, 10, 64); perr == nil && n > maxID {
			maxID = n
		}
	}
	for cur := s.nextID.Load(); cur < maxID && !s.nextID.CompareAndSwap(cur, maxID); cur = s.nextID.Load() {
	}

	// Re-register and re-enqueue in journal order so recovered traffic
	// keeps its original arrival order.
	ids := make([]string, 0, len(jobs))
	for id := range jobs { //ampvet:allow determinism ids are sorted by journal order below
		ids = append(ids, id)
	}
	sortByOrder(ids, jobs)
	for _, id := range ids {
		rj := jobs[id]
		if rj.terminal {
			j := newJobEntry(rj.spec)
			j.id, j.recovered = id, true
			j.setState(rj.state, rj.errMsg)
			s.mu.Lock()
			s.jobs[id] = j
			s.mu.Unlock()
			stats.Terminal++
			continue
		}
		if !rj.hasSpec {
			// A start record whose submit record was lost to corruption:
			// nothing to re-run.
			continue
		}
		if _, err := s.submit([]JobSpec{rj.spec}, []string{id}); err != nil {
			// Spec no longer valid (options drifted): register the job
			// failed rather than losing it silently.
			j := newJobEntry(rj.spec)
			j.id, j.recovered = id, true
			j.setState(jobqueue.StateFailed, fmt.Sprintf("recovery resubmit: %v", err))
			s.mu.Lock()
			s.jobs[id] = j
			s.mu.Unlock()
			stats.Terminal++
			continue
		}
		stats.Requeued++
		s.jobsRecovered.Inc()
	}
	return stats, nil
}

// sortByOrder sorts ids by their first appearance in the journal.
func sortByOrder(ids []string, jobs map[string]*recoveredJob) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && jobs[ids[j]].order < jobs[ids[j-1]].order; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
