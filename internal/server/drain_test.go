package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"ampsched/internal/pairstore"
)

// TestDrainFinishesInFlightJobs is the graceful-shutdown acceptance
// test: with several sweep jobs in flight, Drain must let them finish,
// lose no completed pair outcomes, flip /readyz to 503, and reject new
// submissions — the SIGTERM path of cmd/ampserve.
func TestDrainFinishesInFlightJobs(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.MaxPending = 16
		cfg.Cache.Dir = dir
	})

	// Distinct seeds so every job simulates its own pairs (no cache
	// shortcuts hiding lost work).
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = s.postJob(t, JobSpec{Pairs: 2, Seed: uint64(100 + i)}).ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every job ran to completion with all its outcomes intact.
	for _, id := range ids {
		st := s.getStatus(t, id)
		if st.State != "done" {
			t.Fatalf("job %s drained in state %q (err %q), want done", id, st.State, st.Error)
		}
		if st.Completed != 2 || len(st.Results) != 2 {
			t.Fatalf("job %s lost outcomes: completed %d, results %d", id, st.Completed, len(st.Results))
		}
	}

	// The drained server is not ready and refuses new work.
	resp, err := http.Get(s.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
	if _, code := s.tryPostJob(t, JobSpec{Pairs: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", code)
	}

	// Drain persisted the cache: every completed pair is on disk.
	reload := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Dir: dir})
	if err := reload.Load(); err != nil {
		t.Fatal(err)
	}
	if n := reload.Len(); n != jobs*2 {
		t.Fatalf("persisted %d pair records, want %d", n, jobs*2)
	}
}

// TestDrainDeadlineCancelsStragglers: a drain past its context cancels
// what is left instead of hanging, and already-completed work is kept.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		opt := testOptions()
		opt.InstrLimit = 500_000_000
		opt.Fidelity = "detailed"
		cfg.BaseOptions = opt
		cfg.Workers = 1
		cfg.MaxPending = 8
	})
	id := s.postJob(t, JobSpec{Pairs: 4}).ID

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.srv.Drain(ctx); err == nil {
		t.Fatal("drain with expired deadline reported success on a straggler")
	}
	st := s.waitDone(t, id)
	if st.State != "canceled" {
		t.Fatalf("straggler state %q, want canceled", st.State)
	}
}
