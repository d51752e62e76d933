package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
	"ampsched/internal/pairstore"
)

// TestBatchedResultsIdenticalToSerial pins the server-level identity
// contract: a job's pairs, each run through RunComparison on the
// runner's pooled systems, come back as exactly the records that each
// pair's three runs produce in-process through RunPair.
func TestBatchedResultsIdenticalToSerial(t *testing.T) {
	s := newTestService(t, nil)
	spec := JobSpec{Pairs: 6}
	final := s.waitDone(t, s.postJob(t, spec).ID)
	if final.State != "done" || len(final.Results) != 6 {
		t.Fatalf("state %q with %d results, want done with 6", final.State, len(final.Results))
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
		key := pairstore.CacheKey(experiments.PairKeySpec(s.srv.coreDigest, opt, i, p))
		data, err := marshalPairResult(i, p, key, res[0], res[1], res[2])
		if err != nil {
			t.Fatal(err)
		}
		var want PairResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(final.Results[i], want) {
			t.Fatalf("pair %d diverges from its runs through RunPair:\nserved: %+v\nsolo:   %+v",
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

// TestCanceledJobStopsSimulating: canceling a running job stops its
// pair's simulation at the next check point instead of running it to
// the end. Its 200M-instruction detailed runs would take minutes.
func TestCanceledJobStopsSimulating(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		opt := testOptions()
		opt.InstrLimit = 200_000_000
		opt.Fidelity = "detailed"
		cfg.BaseOptions = opt
	})
	id := s.postJob(t, JobSpec{Pairs: 1}).ID
	// The job builds its profile before its unit loop, so the pair's
	// cache miss means its simulation has started.
	waitCounter := func(name, what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for s.tel.Counter(name).Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCounter("server.cache_misses", "the job never started simulating")
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The counter moves once the pair's three runs have returned.
	waitCounter("server.batched_pairs", "the canceled job kept simulating")
	if st := s.waitDone(t, id); st.State != "canceled" || len(st.Results) != 0 {
		t.Fatalf("job ended %q with %d results, want canceled with none", st.State, len(st.Results))
	}
}

// TestSubmitManyAtomicGroup exercises the array form of POST /v1/jobs:
// the group is accepted atomically through one queue Submit, every
// member completes, a group larger than MaxPending bounces whole, and
// one that exactly fills it is still accepted.
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

	// A group larger than MaxPending is refused atomically on an idle
	// queue: no member is enqueued or registered, and every member
	// counts as rejected.
	before := s.tel.Counter("server.jobs_submitted").Value()
	big := make([]JobSpec, 17) // MaxPending is 16
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
	if got := resp2.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("queue-full Retry-After = %q, want 1", got)
	}
	if got := s.tel.Counter("server.jobs_submitted").Value(); got != before {
		t.Fatalf("jobs_submitted moved %d -> %d on a rejected batch", before, got)
	}
	if got := s.tel.Counter("server.jobs_rejected").Value(); got != 17 {
		t.Fatalf("server.jobs_rejected = %d, want 17 (every member)", got)
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
