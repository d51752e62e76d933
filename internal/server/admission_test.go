package server

import (
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRacingSubmittersNeverPassMaxPending: with both workers parked,
// racing single and group submitters fill the backlog exactly to
// MaxPending and never past it — admission and enqueue share one
// critical section.
func TestRacingSubmittersNeverPassMaxPending(t *testing.T) {
	const maxPending = 4
	s := newTestService(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.MaxPending = maxPending
	})
	// Each blocker job parks a worker in the fleet lookup of its pair.
	park := parkLookups(s.srv, 2)
	blockers, err := s.srv.Submit(pair("gcc", "swim"), pair("gcc", "art"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered

	spec := pair("gcc", "swim")
	var mu sync.Mutex
	var accepted []*jobEntry
	var refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			group := []JobSpec{spec}
			if g%2 == 0 {
				group = []JobSpec{spec, spec, spec}
			}
			for i := 0; i < 30; i++ {
				entries, err := s.srv.Submit(group...)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("submit: %v", err)
						return
					}
					refused.Add(int64(len(group)))
					continue
				}
				mu.Lock()
				accepted = append(accepted, entries...)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// Parked workers pop nothing, so the backlog never shrank: its
	// final size is its peak.
	if got := s.srv.pendingJobs(); got != maxPending {
		t.Errorf("pending = %d, want exactly MaxPending = %d", got, maxPending)
	}
	if len(accepted) != maxPending {
		t.Errorf("accepted %d jobs, want %d", len(accepted), maxPending)
	}
	if got := s.tel.Counter("server.jobs_rejected").Value(); got != uint64(refused.Load()) {
		t.Errorf("server.jobs_rejected = %d, want %d", got, refused.Load())
	}
	close(park.release)
	for _, j := range append(blockers, accepted...) {
		if st := s.waitDone(t, j.id); st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", j.id, st.State, st.Error)
		}
	}
}

// TestSubmitManyOversizedGroup: with the only worker parked, an empty
// group is refused, a group one larger than MaxPending bounces whole —
// nothing enqueued, every member counted as rejected — and the bounce
// consumes no slot, so a group of exactly MaxPending still fits
// afterwards.
func TestSubmitManyOversizedGroup(t *testing.T) {
	const maxPending = 4
	s := newTestService(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.MaxPending = maxPending
	})
	// The blocker parks the worker in the fleet lookup of its pair, so
	// admitted jobs stay pending and countable.
	park := parkLookups(s.srv, 1)
	blocker, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered

	if _, err := s.srv.Submit(); err == nil {
		t.Fatal("empty group accepted")
	}
	over := make([]JobSpec, maxPending+1)
	for i := range over {
		over[i] = pair("gcc", "art")
	}
	if _, err := s.srv.Submit(over...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized group on an empty backlog: err = %v, want ErrQueueFull", err)
	}
	if got := s.srv.pendingJobs(); got != 0 {
		t.Fatalf("pending after oversized bounce = %d, want 0 (partial enqueue?)", got)
	}
	if got := s.tel.Counter("server.jobs_submitted").Value(); got != 1 {
		t.Fatalf("server.jobs_submitted = %d, want 1 (the blocker only)", got)
	}
	if got := s.tel.Counter("server.jobs_rejected").Value(); got != maxPending+1 {
		t.Fatalf("server.jobs_rejected = %d, want %d (every member of the bounced group)", got, maxPending+1)
	}

	full, err := s.srv.Submit(over[:maxPending]...)
	if err != nil {
		t.Fatalf("group of exactly MaxPending after bounce: %v", err)
	}
	if got := s.srv.pendingJobs(); got != maxPending {
		t.Fatalf("pending = %d, want %d", got, maxPending)
	}
	close(park.release)
	for _, j := range append(blocker, full...) {
		if st := s.waitDone(t, j.id); st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", j.id, st.State, st.Error)
		}
	}
}

// TestWedgedJobRefusesNoOtherJob: a job whose every pair wedges (a
// 10 M-cycle swap overhead outlasts the 8 M-cycle no-progress
// watchdog) fails alone. A pair record is a pure function of its spec,
// so the wedge recurs for that spec and says nothing about the engine:
// the next healthy job at the same fidelity is admitted and completes,
// and /readyz stays plainly ready. The wedged job lists one pair 20
// times, so only two benchmarks are calibrated.
func TestWedgedJobRefusesNoOtherJob(t *testing.T) {
	s := newTestService(t, nil)
	const pairs = 20
	names := make([][2]string, pairs)
	for i := range names {
		names[i] = [2]string{"gcc", "swim"}
	}
	wedged := s.waitDone(t, s.postJob(t, JobSpec{PairNames: names, SwapOverhead: 10_000_000}).ID)
	if wedged.State != "failed" || wedged.Failed != pairs {
		t.Fatalf("wedging job ended %q with %d of %d pairs failed (err %q), want failed with every pair",
			wedged.State, wedged.Failed, pairs, wedged.Error)
	}

	st, code := s.tryPostJob(t, JobSpec{Pairs: 2, Seed: 5})
	if code != http.StatusAccepted {
		t.Fatalf("healthy job after the wedge: POST = %d, want 202", code)
	}
	if final := s.waitDone(t, st.ID); final.State != "done" {
		t.Fatalf("healthy job ended %q (err %q), want done", final.State, final.Error)
	}
	resp, err := http.Get(s.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("/readyz after the wedge = %d %q, want 200 \"ready\\n\"", resp.StatusCode, body)
	}
}
