package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"ampsched/internal/jobqueue"
	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
	"ampsched/internal/wal"
)

// writeJournal hand-writes journal records into dir, standing in for
// the state a kill -9'd server leaves behind (no terminal record for
// in-flight jobs).
func writeJournal(t *testing.T, dir string, recs ...wal.Record) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func rec(t *testing.T, typ byte, payload any) wal.Record {
	t.Helper()
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return wal.Record{Type: typ, Data: data}
}

// TestJournalRecoveryRequeuesIncompleteJobs: a journal holding one
// finished job and one that never reached a terminal record. Recovery
// re-registers the first and re-runs the second to completion.
func TestJournalRecoveryRequeuesIncompleteJobs(t *testing.T) {
	jdir := t.TempDir()
	spec := JobSpec{Pairs: 2, Seed: 44}
	writeJournal(t, jdir,
		rec(t, recSubmit, submitRecord{ID: "7", Spec: spec}),
		rec(t, recStart, idRecord{ID: "7"}), // crashed mid-run
		rec(t, recSubmit, submitRecord{ID: "9", Spec: spec}),
		rec(t, recDone, idRecord{ID: "9"}),
	)

	s := newTestService(t, func(cfg *Config) { cfg.JournalDir = jdir })
	stats, err := s.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 2 || stats.Requeued != 1 || stats.Terminal != 1 {
		t.Fatalf("RecoveryStats = %+v, want 2 jobs, 1 requeued, 1 terminal", stats)
	}
	if got := s.tel.Counter("server.jobs_recovered").Value(); got != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", got)
	}

	// The finished job is queryable in its final state.
	done := s.getStatus(t, "9")
	if done.State != "done" || !done.Recovered {
		t.Fatalf("job 9 = %+v, want recovered done", done)
	}
	// The interrupted job re-runs to completion under its original id.
	st := s.waitDone(t, "7")
	if st.State != "done" || !st.Recovered || st.Completed != 2 {
		t.Fatalf("job 7 = %+v, want recovered done with 2 pairs", st)
	}
	// New ids continue past the recovered ones.
	if id := s.postJob(t, spec).ID; id != "10" {
		t.Fatalf("next id after recovery = %s, want 10", id)
	}
}

// TestRecoveryNeverRefusesForDepth: recovery re-enqueues every
// acknowledged job, however far past MaxPending the journal reaches —
// those jobs were admitted before the crash.
func TestRecoveryNeverRefusesForDepth(t *testing.T) {
	jdir := t.TempDir()
	var recs []wal.Record
	for i := 1; i <= 6; i++ {
		recs = append(recs, rec(t, recSubmit, submitRecord{
			ID:   strconv.Itoa(i),
			Spec: JobSpec{Pairs: i, Seed: 44},
		}))
	}
	writeJournal(t, jdir, recs...)

	s := newTestService(t, func(cfg *Config) {
		cfg.JournalDir = jdir
		cfg.Queue = jobqueue.Config{Workers: 1}
		cfg.MaxPending = 1
	})
	stats, err := s.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 6 {
		t.Fatalf("RecoveryStats = %+v, want 6 requeued", stats)
	}
	for i := 1; i <= 6; i++ {
		if st := s.waitDone(t, strconv.Itoa(i)); st.State != "done" {
			t.Fatalf("job %d ended %q (err %q), want done", i, st.State, st.Error)
		}
	}
}

// TestCancelRecoveredTerminalJob: a DELETE on a job Recover
// registered without a queue job — one the journal says finished, and
// one whose resubmit failed — answers 202 with the job's terminal
// state unchanged, cancels nothing and journals nothing.
func TestCancelRecoveredTerminalJob(t *testing.T) {
	jdir := t.TempDir()
	writeJournal(t, jdir,
		rec(t, recSubmit, submitRecord{ID: "9", Spec: JobSpec{Pairs: 2, Seed: 44}}),
		rec(t, recDone, idRecord{ID: "9"}),
		rec(t, recSubmit, submitRecord{ID: "10", Spec: JobSpec{Pairs: 2, Seed: 44, Fidelity: "bogus"}}),
	)
	s := newTestService(t, func(cfg *Config) { cfg.JournalDir = jdir })
	stats, err := s.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Terminal != 2 || stats.Requeued != 0 {
		t.Fatalf("RecoveryStats = %+v, want 2 terminal, 0 requeued", stats)
	}
	records := func() int {
		t.Helper()
		if err := s.srv.journal.Sync(); err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := wal.Replay(jdir, func(wal.Record) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := records()
	for id, want := range map[string]string{"9": "done", "10": "failed"} {
		req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE /v1/jobs/%s: %v", id, err)
		}
		var st JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || derr != nil {
			t.Fatalf("DELETE /v1/jobs/%s = %d (%v), want 202", id, resp.StatusCode, derr)
		}
		if st.State != want || !st.Recovered {
			t.Fatalf("DELETE /v1/jobs/%s answered %+v, want recovered %s", id, st, want)
		}
		if got := s.getStatus(t, id).State; got != want {
			t.Fatalf("job %s is %q after DELETE, want %s", id, got, want)
		}
	}
	if got := s.tel.Counter("server.jobs_canceled").Value(); got != 0 {
		t.Fatalf("jobs_canceled = %d, want 0", got)
	}
	if after := records(); after != before {
		t.Fatalf("journal grew from %d to %d records", before, after)
	}
}

// TestRecoveryResumesFromCheckpointedCache: the crash-safety core. A
// first server completes a sweep and persists its cache; a journal
// says the same job never finished. The recovered job is served
// entirely from the persisted pairs — zero re-simulation — and counts
// as a checkpointed resume.
func TestRecoveryResumesFromCheckpointedCache(t *testing.T) {
	cdir, jdir := t.TempDir(), t.TempDir()
	spec := JobSpec{Pairs: 2, Seed: 44}

	s1 := newTestService(t, func(cfg *Config) { cfg.Cache.Dir = cdir })
	if st := s1.waitDone(t, s1.postJob(t, spec).ID); st.State != "done" {
		t.Fatalf("first run %q", st.State)
	}
	if err := s1.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	writeJournal(t, jdir, rec(t, recSubmit, submitRecord{ID: "3", Spec: spec}))

	s2 := newTestService(t, func(cfg *Config) {
		cfg.Cache.Dir = cdir
		cfg.JournalDir = jdir
	})
	if err := s2.srv.Cache().Load(); err != nil {
		t.Fatal(err)
	}
	stats, err := s2.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 {
		t.Fatalf("RecoveryStats = %+v, want 1 requeued", stats)
	}
	st := s2.waitDone(t, "3")
	if st.State != "done" || st.CacheHits != 2 {
		t.Fatalf("recovered job = %+v, want done with 2 cache hits", st)
	}
	if misses := s2.tel.Counter("server.cache_misses").Value(); misses != 0 {
		t.Fatalf("recovered job re-simulated %d pairs", misses)
	}
	if got := s2.tel.Counter("server.checkpoint_resumes").Value(); got != 1 {
		t.Fatalf("checkpoint_resumes = %d, want 1", got)
	}
}

// TestRecoveryQuarantinesCorruptJournalSegment: a garbage segment must
// not fail boot; intact records still recover.
func TestRecoveryQuarantinesCorruptJournalSegment(t *testing.T) {
	jdir := t.TempDir()
	writeJournal(t, jdir,
		rec(t, recSubmit, submitRecord{ID: "1", Spec: JobSpec{Pairs: 1, Seed: 5}}),
		rec(t, recDone, idRecord{ID: "1"}),
	)
	if err := os.WriteFile(filepath.Join(jdir, "journal-00000005.wal"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, func(cfg *Config) { cfg.JournalDir = jdir })
	stats, err := s.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replay.SegmentsQuarantined != 1 || stats.Terminal != 1 {
		t.Fatalf("RecoveryStats = %+v, want 1 quarantined segment and 1 terminal job", stats)
	}
	if st := s.getStatus(t, "1"); st.State != "done" {
		t.Fatalf("job 1 state %q, want done", st.State)
	}
}

// TestAcknowledgedImpliesJournaled: a submission the journal cannot
// record is refused, never silently accepted.
func TestAcknowledgedImpliesJournaled(t *testing.T) {
	jdir := t.TempDir()
	s := newTestService(t, func(cfg *Config) { cfg.JournalDir = jdir })

	// A successful submit leaves a durable submit record.
	id := s.postJob(t, JobSpec{Pairs: 1, Seed: 5}).ID
	s.waitDone(t, id)
	found := false
	if _, err := wal.Replay(jdir, func(r wal.Record) error {
		if r.Type == recSubmit {
			var sr submitRecord
			if json.Unmarshal(r.Data, &sr) == nil && sr.ID == id {
				found = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no journal submit record for acknowledged job %s", id)
	}
}

func TestCacheLoadQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.New()
	c, err := pairstore.NewCache(pairstore.CacheConfig{Dir: dir, Validate: json.Valid, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aaaa", []byte(`{"ok":true}`))
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// A truncated entry, as a torn write would leave it.
	bad := filepath.Join(dir, "bbbb.json")
	if err := os.WriteFile(bad, []byte(`{"truncat`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := pairstore.NewCache(pairstore.CacheConfig{Dir: dir, Validate: json.Valid, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Load(); err != nil {
		t.Fatalf("Load with corrupt entry errored: %v", err)
	}
	if c2.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 (corrupt one skipped)", c2.Len())
	}
	if _, ok := c2.Peek("aaaa"); !ok {
		t.Fatal("intact entry lost")
	}
	if got := tel.Counter("server.cache_corrupt").Value(); got != 1 {
		t.Fatalf("cache_corrupt = %d, want 1", got)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	// Reload: the quarantined file no longer matches *.json, so the
	// second boot is clean.
	c3, err := pairstore.NewCache(pairstore.CacheConfig{Dir: dir, Validate: json.Valid})
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.Load(); err != nil || c3.Len() != 1 {
		t.Fatalf("reload after quarantine: %v, %d entries", err, c3.Len())
	}
}

// TestCancelDuringDrainRacesJournalReplay drives the race the chaos
// harness cares about: clients canceling jobs while the server drains,
// journal records landing concurrently, then a second server replaying
// that journal. Run under -race; correctness here is "no torn state":
// every job the journal knows resolves to exactly one terminal state
// after recovery.
func TestCancelDuringDrainRacesJournalReplay(t *testing.T) {
	jdir := t.TempDir()
	s1 := newTestService(t, func(cfg *Config) {
		cfg.JournalDir = jdir
		cfg.Queue = jobqueue.Config{Workers: 2}
		cfg.MaxPending = 32
	})
	var entries []*jobEntry
	for i := 0; i < 8; i++ {
		js, err := s1.srv.Submit(JobSpec{Pairs: 1, Seed: uint64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, js...)
	}
	var wg sync.WaitGroup
	for i, j := range entries {
		if i%2 == 0 {
			continue
		}
		wg.Add(1)
		go func(j *jobEntry) {
			defer wg.Done()
			j.qjob.Cancel()
			if j.setState(jobqueue.StateCanceled, "canceled by client") {
				s1.srv.journalTerminal(j.id, jobqueue.StateCanceled, "canceled by client")
			}
		}(j)
	}
	drainErr := make(chan error, 1)
	go func() { drainErr <- s1.srv.Drain(context.Background()) }()
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}

	s2 := newTestService(t, func(cfg *Config) { cfg.JournalDir = jdir })
	stats, err := s2.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != len(entries) {
		t.Fatalf("recovered %d journaled jobs, want %d", stats.Jobs, len(entries))
	}
	// Every journaled job resolves to one terminal state — re-run if the
	// drain race left it without a terminal record.
	for _, j := range entries {
		st := s2.waitDone(t, j.id)
		switch st.State {
		case "done", "canceled", "failed":
		default:
			t.Fatalf("job %s in state %q after recovery", j.id, st.State)
		}
	}
}
