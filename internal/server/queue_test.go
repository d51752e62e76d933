package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/fault"
	"ampsched/internal/wal"
)

// lookupPark parks job runs in the fleet lookup of their pairs.
type lookupPark struct {
	entered chan struct{} // closed once the first n lookups are parked
	release chan struct{} // close to let the parked lookups go on

	mu   sync.Mutex
	seen []string // every key looked up, in order
}

// parkLookups installs a fleet lookup whose first n calls block until
// p.release is closed or their job's context ends. Every lookup is
// recorded and falls through to local compute.
func parkLookups(s *Server, n int) *lookupPark {
	p := &lookupPark{entered: make(chan struct{}), release: make(chan struct{})}
	parked := 0
	s.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
		p.mu.Lock()
		p.seen = append(p.seen, key)
		park := parked < n
		if park {
			if parked++; parked == n {
				close(p.entered)
			}
		}
		p.mu.Unlock()
		if park {
			select {
			case <-p.release:
			case <-ctx.Done():
			}
		}
		return nil, false
	}, nil)
	return p
}

// keys returns the keys looked up so far, in order.
func (p *lookupPark) keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.seen)
}

// pendingJobs returns the backlog's size.
func (s *Server) pendingJobs() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.pending)
}

// pair is a one-pair JobSpec.
func pair(a, b string) JobSpec { return JobSpec{PairNames: [][2]string{{a, b}}} }

func (s *testService) deleteJob(t *testing.T, id string) JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /v1/jobs/%s = %d, want 202", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// terminalRecords replays the journal in dir and counts, per job id,
// its cancel records and its other terminal (done, fail) records.
func terminalRecords(t *testing.T, dir string) (cancels, others map[string]int) {
	t.Helper()
	cancels, others = map[string]int{}, map[string]int{}
	if _, err := wal.Replay(dir, func(r wal.Record) error {
		var ir idRecord
		if err := json.Unmarshal(r.Data, &ir); err != nil {
			return err
		}
		switch r.Type {
		case recCancel:
			cancels[ir.ID]++
		case recDone, recFail:
			others[ir.ID]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cancels, others
}

// TestPriorityOrdering: behind the one parked worker, queued jobs run
// highest priority first, and equal priorities in arrival order.
func TestPriorityOrdering(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	blocker, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered

	partners := []string{"art", "mcf", "equake", "apsi", "mesa"}
	var jobs []*jobEntry
	for i, prio := range []int{0, 5, 1, 5, 9} {
		spec := pair("gcc", partners[i])
		spec.Priority = prio
		js, err := s.srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, js...)
	}
	close(park.release)
	s.waitDone(t, blocker[0].id)
	// Priorities 9, 5 (the first submitted), 5, 1, 0.
	var want []string
	for _, k := range []int{4, 1, 3, 2, 0} {
		st := s.waitDone(t, jobs[k].id)
		if st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", st.ID, st.State, st.Error)
		}
		want = append(want, st.Results[0].Key)
	}
	if got := park.keys()[1:]; !slices.Equal(got, want) {
		t.Fatalf("jobs ran in key order %v, want %v (priority desc, FIFO ties)", got, want)
	}
}

// TestJobDeadline: timeout_ms bounds a job's run, so a job still
// running at its deadline stops before its next pair and ends canceled
// with the deadline as its error.
func TestJobDeadline(t *testing.T) {
	s := newTestService(t, nil)
	// A first job runs the profiling pass, so the timed job reaches its
	// first pair well within its deadline.
	if st := s.waitDone(t, s.postJob(t, pair("gcc", "art")).ID); st.State != "done" {
		t.Fatalf("warm-up job ended %q (err %q), want done", st.State, st.Error)
	}
	park := parkLookups(s.srv, 1) // released only by the job's context
	spec := JobSpec{PairNames: [][2]string{{"gcc", "swim"}, {"gcc", "mcf"}}, TimeoutMS: 200}
	st := s.waitDone(t, s.postJob(t, spec).ID)
	if st.State != "canceled" || st.Error != context.DeadlineExceeded.Error() || st.Completed == len(spec.PairNames) {
		t.Fatalf("timed-out job = %+v, want canceled by %q before its last pair", st, context.DeadlineExceeded)
	}
	select {
	case <-park.entered:
	default:
		t.Fatal("the job never ran")
	}
}

// TestCancelPendingJobNeverRuns: a DELETE on a job pending behind the
// parked worker settles it canceled at once, and it never runs: only
// the blocker's pair is simulated.
func TestCancelPendingJobNeverRuns(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	blocker := s.postJob(t, pair("gcc", "swim"))
	<-park.entered
	pending := s.postJob(t, pair("gcc", "art"))
	if st := s.deleteJob(t, pending.ID); st.State != "canceled" || st.Error != "canceled by client" {
		t.Fatalf("DELETE answered %+v, want canceled by client", st)
	}
	close(park.release)
	if st := s.waitDone(t, blocker.ID); st.State != "done" {
		t.Fatalf("blocker ended %q (err %q), want done", st.State, st.Error)
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.tel.Counter("server.batched_pairs").Value(); got != 1 {
		t.Fatalf("server.batched_pairs = %d, want 1 (the blocker's pair only)", got)
	}
	if st := s.getStatus(t, pending.ID); st.State != "canceled" || len(st.Results) != 0 {
		t.Fatalf("canceled job = %+v, want canceled with no results", st)
	}
}

// TestJobPanicFailsAlone: a job whose run panics (here with the
// injected chaos panic, in its pair's fleet lookup) fails alone,
// counted on jobqueue.panics, and the next job on the same worker,
// for the same pair, completes. Once a job reports terminal its worker
// has left the running census.
func TestJobPanicFailsAlone(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	var lookups atomic.Int64
	s.srv.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
		if lookups.Add(1) == 1 {
			panic(fault.ErrInjectedPanic)
		}
		return nil, false
	}, nil)
	bad := s.waitDone(t, s.postJob(t, pair("gcc", "swim")).ID)
	if bad.State != "failed" || !strings.Contains(bad.Error, fault.ErrInjectedPanic.Error()) {
		t.Fatalf("panicking job = %+v, want failed by %q", bad, fault.ErrInjectedPanic)
	}
	if got := s.tel.Gauge("jobqueue.running").Value(); got != 0 {
		t.Fatalf("jobqueue.running = %g once the job reports failed, want 0", got)
	}
	// The deadline only shortens a failure: a pair whose panicked
	// flight never ended would wait on it for good.
	next := pair("gcc", "swim")
	next.TimeoutMS = 10_000
	if st := s.waitDone(t, s.postJob(t, next).ID); st.State != "done" {
		t.Fatalf("next job ended %q (err %q), want done", st.State, st.Error)
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"jobqueue.panics": 1, "server.jobs_failed": 1, "server.jobs_completed": 1,
	} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestSettledJobDropsPlan: the server keeps every job entry for its
// lifetime, so settling must release the job's plan and what it holds,
// both for a job that ran and for one canceled before it started.
func TestSettledJobDropsPlan(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	blocker, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered
	jobs, err := s.srv.Submit(pair("gcc", "art"), pair("gcc", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	ran, canceled := jobs[0], jobs[1]
	finalized := func(j *jobEntry) chan struct{} {
		fin := make(chan struct{})
		j.mu.Lock()
		runtime.SetFinalizer(j.plan, func(*jobPlan) { close(fin) })
		j.mu.Unlock()
		return fin
	}
	ranFin, canceledFin := finalized(ran), finalized(canceled)
	s.srv.cancelJob(canceled, "canceled by client")
	close(park.release)
	for _, j := range []*jobEntry{blocker[0], ran} {
		if st := s.waitDone(t, j.id); st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", j.id, st.State, st.Error)
		}
	}
	for name, fin := range map[string]chan struct{}{"ran": ranFin, "canceled": canceledFin} {
		deadline := time.After(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-fin:
				done = true
			case <-deadline:
				t.Fatalf("the %s job's plan is still reachable after it settled", name)
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// TestShutdownJournalsEveryPendingCancel: Close, and a Drain whose
// context ends, settle every job pending behind the parked worker
// before the journal closes: after replay each has exactly one cancel
// record and no other terminal record, and no journal write failed.
func TestShutdownJournalsEveryPendingCancel(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Server) error
	}{
		{"close", (*Server).Close},
		{"drain-timeout", func(s *Server) error {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("drain: %v, want the deadline", err)
			}
			return nil
		}},
	} {
		t.Run(stop.name, func(t *testing.T) {
			jdir := t.TempDir()
			s := newTestService(t, func(cfg *Config) {
				cfg.JournalDir = jdir
				cfg.Workers = 1
			})
			park := parkLookups(s.srv, 1)
			if _, err := s.srv.Submit(pair("gcc", "swim")); err != nil {
				t.Fatal(err)
			}
			<-park.entered
			specs := make([]JobSpec, 6)
			for i := range specs {
				specs[i] = pair("gcc", "art")
			}
			pending, err := s.srv.Submit(specs...)
			if err != nil {
				t.Fatal(err)
			}
			if err := stop.stop(s.srv); err != nil {
				t.Fatal(err)
			}
			if got := s.tel.Counter("server.journal_errors").Value(); got != 0 {
				t.Fatalf("server.journal_errors = %d, want 0", got)
			}
			cancels, others := terminalRecords(t, jdir)
			for _, j := range pending {
				if cancels[j.id] != 1 || others[j.id] != 0 {
					t.Errorf("job %s: %d cancel and %d other terminal records, want exactly one cancel",
						j.id, cancels[j.id], others[j.id])
				}
			}
		})
	}
}

// TestWorkerPoolRunsEveryJob: a pool of two workers runs every admitted
// job once, to done. Once drained, the queue is idle and each job was
// timed once on jobqueue.wait_us and jobqueue.run_us.
func TestWorkerPoolRunsEveryJob(t *testing.T) {
	const n = 10
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 2 })
	partners := []string{"swim", "art"}
	var jobs []*jobEntry
	for i := 0; i < n; i++ {
		js, err := s.srv.Submit(pair("gcc", partners[i%len(partners)]))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, js...)
	}
	for _, j := range jobs {
		if st := s.waitDone(t, j.id); st.State != "done" || len(st.Results) != 1 {
			t.Fatalf("job %s = %+v, want done with its one pair", j.id, st)
		}
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"server.jobs_submitted": n, "server.jobs_completed": n, "jobqueue.batches": n,
	} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"jobqueue.wait_us", "jobqueue.run_us"} {
		if got := s.tel.Histogram(name).Count(); got != n {
			t.Errorf("%s observed %d jobs, want %d", name, got, n)
		}
	}
	for _, name := range []string{"jobqueue.depth", "jobqueue.running"} {
		if got := s.tel.Gauge(name).Value(); got != 0 {
			t.Errorf("%s = %g after drain, want 0", name, got)
		}
	}
}

// TestCancelRunningJobFreesWorker: a DELETE on a running job settles it
// canceled at once and ends the context its run waits on, so the one
// worker goes on to the next job; the run's own end changes nothing.
func TestCancelRunningJobFreesWorker(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	entered, stopped := make(chan struct{}), make(chan error, 1)
	var lookups atomic.Int64
	s.srv.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
		if lookups.Add(1) == 1 {
			close(entered)
			<-ctx.Done() // only the job's context lets the first lookup go
			stopped <- ctx.Err()
		}
		return nil, false
	}, nil)
	running := s.postJob(t, pair("gcc", "swim"))
	<-entered
	if st := s.deleteJob(t, running.ID); st.State != "canceled" || st.Error != "canceled by client" {
		t.Fatalf("DELETE answered %+v, want canceled by client", st)
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the running job's context ended with %v, want %v", err, context.Canceled)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the running job's context did not end")
	}
	if st := s.waitDone(t, s.postJob(t, pair("gcc", "art")).ID); st.State != "done" {
		t.Fatalf("next job ended %q (err %q), want done", st.State, st.Error)
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.getStatus(t, running.ID); st.State != "canceled" || st.Error != "canceled by client" {
		t.Fatalf("canceled job = %+v after its run ended, want canceled by client", st)
	}
	for name, want := range map[string]uint64{"server.jobs_canceled": 1, "server.jobs_completed": 1} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestDrainRunsPendingBacklog: Drain refuses new groups at once, but
// lets the workers run the whole backlog queued behind the parked
// worker before it returns.
func TestDrainRunsPendingBacklog(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	jobs, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered
	partners := []string{"art", "mcf", "equake"}
	specs := make([]JobSpec, 6)
	for i := range specs {
		specs[i] = pair("gcc", partners[i%len(partners)])
	}
	backlog, err := s.srv.Submit(specs...)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, backlog...)

	drained := make(chan error, 1)
	go func() { drained <- s.srv.Drain(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); !s.srv.draining.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started refusing new groups")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.srv.Submit(pair("gcc", "apsi")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
	if got := s.srv.pendingJobs(); got != len(backlog) {
		t.Fatalf("pending while draining = %d, want the backlog's %d", got, len(backlog))
	}
	close(park.release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}
	for _, j := range jobs {
		if st := j.status(false); st.State != "done" || st.Completed != 1 {
			t.Fatalf("job %s = %+v after drain, want done with its one pair", j.id, st)
		}
	}
	for name, want := range map[string]uint64{
		"server.jobs_completed": uint64(len(jobs)), "server.jobs_rejected": 1,
	} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestDrainTimeoutCancelsRunningJob: a Drain whose context ends cancels
// a job still running, and returns only once its worker has settled the
// job canceled, with its one cancel record journaled.
func TestDrainTimeoutCancelsRunningJob(t *testing.T) {
	jdir := t.TempDir()
	s := newTestService(t, func(cfg *Config) {
		cfg.JournalDir = jdir
		cfg.Workers = 1
	})
	park := parkLookups(s.srv, 1) // released only by the job's context
	// Two pairs: the run stops before the second once its context ends.
	spec := JobSpec{PairNames: [][2]string{{"gcc", "swim"}, {"gcc", "mcf"}}}
	straggler, err := s.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want %v", err, context.DeadlineExceeded)
	}
	j := straggler[0]
	if st := j.status(false); st.State != "canceled" || st.Completed == len(spec.PairNames) {
		t.Fatalf("straggler = %+v when Drain returned, want canceled before its last pair", st)
	}
	if got := s.tel.Counter("server.journal_errors").Value(); got != 0 {
		t.Fatalf("server.journal_errors = %d, want 0", got)
	}
	if cancels, others := terminalRecords(t, jdir); cancels[j.id] != 1 || others[j.id] != 0 {
		t.Fatalf("straggler has %d cancel and %d other terminal records, want exactly one cancel",
			cancels[j.id], others[j.id])
	}
}

// TestWorkerRetiresBeforeSettle forces the interleaving in which a
// client that sees its job terminal could still find it counted
// running: while the job's settle is stalled (the test holds its lock),
// its worker has already left jobqueue.running.
func TestWorkerRetiresBeforeSettle(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	entered, release := make(chan struct{}), make(chan struct{})
	var lookups atomic.Int64
	s.srv.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
		if lookups.Add(1) == 1 {
			close(entered)
			<-release
			panic("lookup failed") // ends the run without touching the job
		}
		return nil, false
	}, nil)
	jobs, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	<-entered
	running := s.tel.Gauge("jobqueue.running")
	if got := running.Value(); got != 1 {
		t.Fatalf("jobqueue.running = %g while the job runs, want 1", got)
	}
	j.mu.Lock() // settle blocks here until released below
	close(release)
	for deadline := time.Now().Add(5 * time.Second); running.Value() != 0; {
		if time.Now().After(deadline) {
			j.mu.Unlock()
			t.Fatal("the worker still counts the job as running while settling it")
		}
		time.Sleep(time.Millisecond)
	}
	settled := j.state.terminal()
	j.mu.Unlock()
	if settled {
		t.Fatal("the job settled while its lock was held")
	}
	if st := s.waitDone(t, j.id); st.State != "failed" {
		t.Fatalf("job ended %q (err %q), want failed", st.State, st.Error)
	}
	if got := running.Value(); got != 0 {
		t.Fatalf("jobqueue.running = %g once the job reports failed, want 0", got)
	}
}

// TestGroupAdmittedWhole: a group is admitted whole behind the parked
// worker, on one jobqueue.batches tick, with adjacent ids and sequence
// numbers, and runs in its order; once the server drains, a group is
// refused whole and every member counts as rejected.
func TestGroupAdmittedWhole(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	blocker, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered

	specs := []JobSpec{pair("gcc", "art"), pair("gcc", "mcf"), pair("gcc", "equake")}
	for i := range specs {
		specs[i].Priority = 3
	}
	group, err := s.srv.Submit(specs...)
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacent(t, group)
	if got := s.srv.pendingJobs(); got != len(group) {
		t.Fatalf("pending after the group = %d, want %d", got, len(group))
	}

	s.srv.stopAccepting()
	if _, err := s.srv.Submit(pair("gcc", "apsi"), pair("gcc", "mesa")); !errors.Is(err, ErrDraining) {
		t.Fatalf("group while draining: err = %v, want ErrDraining", err)
	}
	if got := s.srv.pendingJobs(); got != len(group) {
		t.Fatalf("pending after the refused group = %d, want %d", got, len(group))
	}

	close(park.release)
	var want []string
	for _, j := range append(blocker, group...) {
		st := s.waitDone(t, j.id)
		if st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", j.id, st.State, st.Error)
		}
		want = append(want, st.Results[0].Key)
	}
	if got := park.keys(); !slices.Equal(got, want) {
		t.Fatalf("jobs ran in key order %v, want %v (the blocker, then the group in order)", got, want)
	}
	for name, want := range map[string]uint64{
		"jobqueue.batches": 2, "server.jobs_submitted": 4, "server.jobs_rejected": 2,
	} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// checkAdjacent fails t unless group's jobs hold consecutive ids and
// sequence numbers, in order.
func checkAdjacent(t *testing.T, group []*jobEntry) {
	t.Helper()
	for k := 1; k < len(group); k++ {
		prev, err := strconv.ParseUint(group[k-1].id, 10, 64)
		if err != nil {
			t.Error(err)
			return
		}
		id, err := strconv.ParseUint(group[k].id, 10, 64)
		if err != nil {
			t.Error(err)
			return
		}
		if id != prev+1 || group[k].seq != group[k-1].seq+1 {
			t.Errorf("group member %d: id %d seq %d after id %d seq %d, want adjacent",
				k, id, group[k].seq, prev, group[k-1].seq)
		}
	}
}

// TestInvalidGroupMemberRefusesGroup: an empty group, and a group with
// one spec the server cannot plan, are refused before they touch the
// queue: nothing is pending, no batch is counted and no id is drawn.
func TestInvalidGroupMemberRefusesGroup(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.Workers = 1 })
	park := parkLookups(s.srv, 1)
	blocker, err := s.srv.Submit(pair("gcc", "swim"))
	if err != nil {
		t.Fatal(err)
	}
	<-park.entered

	if _, err := s.srv.Submit(); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := s.srv.Submit(pair("gcc", "art"), pair("gcc", "no-such-benchmark")); err == nil ||
		!strings.Contains(err.Error(), "job spec 1") {
		t.Fatalf("group with an unknown benchmark: err = %v, want one naming job spec 1", err)
	}
	if got := s.srv.pendingJobs(); got != 0 {
		t.Fatalf("pending after the refused groups = %d, want 0", got)
	}
	for name, want := range map[string]uint64{"jobqueue.batches": 1, "server.jobs_submitted": 1} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d (the blocker only)", name, got, want)
		}
	}

	next, err := s.srv.Submit(pair("gcc", "art"))
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacent(t, append(blocker, next...))
	close(park.release)
	for _, j := range append(blocker, next...) {
		if st := s.waitDone(t, j.id); st.State != "done" {
			t.Fatalf("job %s ended %q (err %q), want done", j.id, st.State, st.Error)
		}
	}
}

// TestRacingGroupsKeepAdjacentIDs: groups and singles from racing
// submitters, while two workers run them, each keep adjacent ids and
// sequence numbers, and every accepted job runs once, to done.
func TestRacingGroupsKeepAdjacentIDs(t *testing.T) {
	const submitters, rounds, groupLen = 4, 30, 3
	s := newTestService(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.MaxPending = submitters * rounds * groupLen
	})
	var mu sync.Mutex
	var accepted []*jobEntry
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := make([]JobSpec, 1)
			if g%2 == 0 {
				specs = make([]JobSpec, groupLen)
			}
			for k := range specs {
				specs[k] = pair("gcc", "swim")
			}
			for i := 0; i < rounds; i++ {
				entries, err := s.srv.Submit(specs...)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				checkAdjacent(t, entries)
				mu.Lock()
				accepted = append(accepted, entries...)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range accepted {
		if st := j.status(false); st.State != "done" || st.Completed != 1 {
			t.Fatalf("job %s = %+v after drain, want done with its one pair", j.id, st)
		}
	}
	n := uint64(len(accepted))
	for name, want := range map[string]uint64{
		"server.jobs_submitted": n, "server.jobs_completed": n, "jobqueue.batches": submitters * rounds,
	} {
		if got := s.tel.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.tel.Histogram("jobqueue.run_us").Count(); got != n {
		t.Errorf("jobqueue.run_us observed %d jobs, want %d (each accepted job once)", got, n)
	}
}
