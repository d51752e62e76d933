package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
)

// TestBatchedResultsIdenticalToSerial pins the server-level identity
// contract: a job served through the pair batcher (interleaved
// RunPairsBatch groups) returns exactly the records that each pair's
// three runs produce in-process as batches of one.
func TestBatchedResultsIdenticalToSerial(t *testing.T) {
	s := newTestService(t, nil)
	spec := JobSpec{Pairs: 6}
	final := s.waitDone(t, s.postJob(t, spec).ID)
	if final.State != "done" || len(final.Results) != 6 {
		t.Fatalf("state %q with %d results, want done with 6", final.State, len(final.Results))
	}
	if got := s.tel.Counter("server.pair_batches").Value(); got == 0 {
		t.Fatal("server ran no pair batches")
	}
	if got := s.tel.Counter("server.batched_pairs").Value(); got != 6 {
		t.Fatalf("server.batched_pairs = %d, want 6", got)
	}

	opt, err := s.srv.optionsFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := spec.resolvePairs(opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.srv.runnerFor(opt) // the job's runner: its profile is already built
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		var res [3]amp.Result
		for k, f := range []experiments.SchedFactory{r.ProposedFactory(), r.HPEFactory(m), r.RRFactory(1)} {
			if res[k], err = r.RunPair(i, p, f); err != nil {
				t.Fatal(err)
			}
		}
		key := CacheKey(pairKeySpec(s.srv.coreDigest, opt, i, p))
		data, err := marshalPairResult(i, p, key, res[0], res[1], res[2])
		if err != nil {
			t.Fatal(err)
		}
		var want PairResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(final.Results[i], want) {
			t.Fatalf("pair %d diverges from its batches of one:\nbatched: %+v\nsolo:    %+v",
				i, final.Results[i], want)
		}
	}
}

// TestJoinerSurvivesLeaderCancel: a job that joined another job's
// in-flight pair still completes when that other job is canceled. The
// leader's cancellation ends the leader's flight, not its joiners'.
func TestJoinerSurvivesLeaderCancel(t *testing.T) {
	for _, fid := range []string{"interval", "detailed"} {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			s := newTestService(t, nil)
			// The first remote lookup holds the leader's flight open
			// until its job is canceled, so the second job joins it;
			// later lookups fall through to local compute.
			entered := make(chan struct{})
			var first atomic.Bool
			s.srv.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
				if first.CompareAndSwap(false, true) {
					close(entered)
					<-ctx.Done()
				}
				return nil, false
			}, nil)

			spec := JobSpec{PairNames: [][2]string{{"gcc", "swim"}}, Fidelity: fid}
			leader := s.postJob(t, spec).ID
			<-entered
			joiner := s.postJob(t, spec).ID
			deadline := time.Now().Add(30 * time.Second)
			for s.tel.Counter("server.cache_joined").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("second job never joined the in-flight pair")
				}
				time.Sleep(time.Millisecond)
			}
			req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/v1/jobs/"+leader, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			if st := s.waitDone(t, joiner); st.State != "done" || len(st.Results) != 1 || st.Results[0].Failed {
				t.Fatalf("joiner ended %q (err %q, results %+v), want done", st.State, st.Error, st.Results)
			}
			if st := s.waitDone(t, leader); st.State != "canceled" {
				t.Fatalf("leader ended %q, want canceled", st.State)
			}
		})
	}
}

// TestAbandonedBatchStops: a batch whose every request has been
// abandoned stops simulating instead of running on until the server
// closes. Its 200M-instruction detailed runs would take minutes.
func TestAbandonedBatchStops(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		opt := testOptions()
		opt.InstrLimit = 200_000_000
		opt.Fidelity = "detailed"
		cfg.BaseOptions = opt
	})
	opt, err := s.srv.optionsFor(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := s.srv.runnerFor(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Matrix(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.srv.batcherFor(runner).run(ctx, 0, experiments.RandomPairs(1, opt.Seed)[0])
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned request returned %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("abandoned batch kept simulating")
	}
}

// TestSubmitManyAtomicGroup exercises the array form of POST /v1/jobs:
// the group is accepted atomically through one queue batch, every
// member completes, and an oversized group bounces whole.
func TestSubmitManyAtomicGroup(t *testing.T) {
	s := newTestService(t, nil)

	specs := []JobSpec{
		{PairNames: [][2]string{{"gcc", "swim"}}},
		{PairNames: [][2]string{{"gcc", "art"}}},
	}
	body, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST batch = %d, want 202", resp.StatusCode)
	}
	var statuses []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("accepted %d jobs, want 2", len(statuses))
	}
	for _, st := range statuses {
		final := s.waitDone(t, st.ID)
		if final.State != "done" || len(final.Results) != 1 {
			t.Fatalf("job %s: state %q, %d results", st.ID, final.State, len(final.Results))
		}
	}
	if got := s.tel.Counter("jobqueue.batches").Value(); got != 1 {
		t.Fatalf("jobqueue.batches = %d, want 1", got)
	}

	// A group larger than the whole queue is refused atomically: no
	// member is enqueued or registered.
	before := s.tel.Counter("server.jobs_submitted").Value()
	big := make([]JobSpec, 40) // Capacity is 16
	for i := range big {
		big[i] = JobSpec{PairNames: [][2]string{{"gcc", "swim"}}}
	}
	body, _ = json.Marshal(big)
	resp2, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d, want 429", resp2.StatusCode)
	}
	if got := s.tel.Counter("server.jobs_submitted").Value(); got != before {
		t.Fatalf("jobs_submitted moved %d -> %d on a rejected batch", before, got)
	}
}

// TestSingleKnobDeltaSharesProfile: a job differing from an earlier
// one in a single sweep-side knob derives its runner from the earlier
// job's and shares its §V profile instead of re-profiling, and its
// records equal a cold server's full recompute.
func TestSingleKnobDeltaSharesProfile(t *testing.T) {
	s := newTestService(t, nil)

	base := JobSpec{PairNames: [][2]string{{"gcc", "swim"}}, FaultSeed: 1}
	delta := JobSpec{PairNames: [][2]string{{"gcc", "swim"}}, FaultSeed: 2}

	f1 := s.waitDone(t, s.postJob(t, base).ID)
	if f1.State != "done" {
		t.Fatalf("base job state %q (err %q)", f1.State, f1.Error)
	}
	f2 := s.waitDone(t, s.postJob(t, delta).ID)
	if f2.State != "done" {
		t.Fatalf("delta job state %q (err %q)", f2.State, f2.Error)
	}
	if got := s.tel.Counter("server.profile_shares").Value(); got != 1 {
		t.Fatalf("server.profile_shares = %d, want 1", got)
	}
	if f1.Results[0].Key == f2.Results[0].Key {
		t.Fatal("fault-seed delta produced the same cache key")
	}

	cold := newTestService(t, nil)
	fc := cold.waitDone(t, cold.postJob(t, delta).ID)
	if fc.State != "done" {
		t.Fatalf("cold job state %q (err %q)", fc.State, fc.Error)
	}
	if got, want := f2.Results[0], fc.Results[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-profile result diverges from cold recompute:\nshared: %+v\ncold:   %+v", got, want)
	}
}
