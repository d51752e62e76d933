package jobqueue

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/telemetry"
)

func newTestQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	return q
}

// submitOne enqueues task as a group of one.
func submitOne(q *Queue, task Task, opts SubmitOptions) (*Job, error) {
	jobs := make([]*Job, 1)
	err := q.Submit([]BatchTask{{Task: task, Opts: opts}}, jobs)
	return jobs[0], err
}

func TestSubmitAndComplete(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 2, Telemetry: tel})
	var ran atomic.Int64
	var jobs []*Job
	for i := 0; i < 10; i++ {
		j, err := submitOne(q, func(ctx context.Context) error {
			ran.Add(1)
			return nil
		}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if s := j.State(); s != StateDone {
			t.Fatalf("state %v, want done", s)
		}
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("ran %d tasks, want 10", got)
	}
	if got := tel.Counter("jobqueue.completed").Value(); got != 10 {
		t.Fatalf("completed counter %d, want 10", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})

	// Block the single worker so submissions pile up in the heap.
	release := make(chan struct{})
	blocker, err := submitOne(q, func(ctx context.Context) error {
		<-release
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to actually occupy the worker.
	for q.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var order []int
	var jobs []*Job
	for _, prio := range []int{0, 5, 1, 5, 9} {
		prio := prio
		j, err := submitOne(q, func(ctx context.Context) error {
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
			return nil
		}, SubmitOptions{Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{9, 5, 5, 1, 0}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range want {
		if order[i] != p {
			t.Fatalf("execution order %v, want %v (priority desc, FIFO ties)", order, want)
		}
	}
}

func TestCancelPendingJobNeverRuns(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	if _, err := submitOne(q, func(ctx context.Context) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	for q.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Bool
	j, err := submitOne(q, func(ctx context.Context) error {
		ran.Store(true)
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want canceled", err)
	}
	if j.State() != StateCanceled {
		t.Fatalf("state %v, want canceled", j.State())
	}
	if ran.Load() {
		t.Fatal("canceled pending job still ran")
	}
}

func TestCancelRunningJob(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	started := make(chan struct{})
	j, err := submitOne(q, func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want canceled", err)
	}
}

var errFlaky = errors.New("flaky")

func TestRetryWithBackoff(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{
		Workers:    1,
		MaxRetries: 3,
		Backoff:    time.Millisecond,
		Retryable:  func(err error) bool { return errors.Is(err, errFlaky) },
		Telemetry:  tel,
	})
	var calls atomic.Int64
	j, err := submitOne(q, func(ctx context.Context) error {
		if calls.Add(1) < 3 {
			return errFlaky
		}
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatalf("job failed after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("task ran %d times, want 3", got)
	}
	if got := tel.Counter("jobqueue.retries").Value(); got != 2 {
		t.Fatalf("retries counter %d, want 2", got)
	}
	if got := j.Attempts(); got != 3 {
		t.Fatalf("Attempts() = %d, want 3", got)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	q := newTestQueue(t, Config{
		Workers:    1,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		Retryable:  func(err error) bool { return errors.Is(err, errFlaky) },
	})
	var calls atomic.Int64
	j, err := submitOne(q, func(ctx context.Context) error {
		calls.Add(1)
		return errFlaky
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, errFlaky) {
		t.Fatalf("error %v, want errFlaky", err)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
	if got := calls.Load(); got != 3 { // 1 try + 2 retries
		t.Fatalf("task ran %d times, want 3", got)
	}
}

func TestNonRetryableFailsImmediately(t *testing.T) {
	q := newTestQueue(t, Config{
		Workers:    1,
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		Retryable:  func(err error) bool { return errors.Is(err, errFlaky) },
	})
	boom := errors.New("boom")
	var calls atomic.Int64
	j, err := submitOne(q, func(ctx context.Context) error {
		calls.Add(1)
		return boom
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("task ran %d times, want 1", got)
	}
}

func TestJobDeadline(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	j, err := submitOne(q, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}, SubmitOptions{Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want deadline exceeded", err)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
}

func TestDrainFinishesBacklog(t *testing.T) {
	q, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	for i := 0; i < 12; i++ {
		if _, err := submitOne(q, func(ctx context.Context) error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		}, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 12 {
		t.Fatalf("drain finished %d jobs, want 12", got)
	}
	if _, err := submitOne(q, func(ctx context.Context) error { return nil }, SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submit error %v, want ErrClosed", err)
	}
}

func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	q, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := submitOne(q, func(ctx context.Context) error {
		<-ctx.Done() // never finishes voluntarily
		return ctx.Err()
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error %v, want deadline exceeded", err)
	}
	if err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("straggler error %v, want canceled", err)
	}
}

// TestBackoffCappedByDeadline: a job with a short deadline and a long
// configured backoff must fail close to its deadline, not sleep the
// full exponential schedule first.
func TestBackoffCappedByDeadline(t *testing.T) {
	fail := errors.New("transient")
	q := newTestQueue(t, Config{
		Workers:    1,
		MaxRetries: 3,
		Backoff:    10 * time.Second, // would dwarf the deadline uncapped
		Retryable:  func(error) bool { return true },
	})
	start := time.Now()
	j, err := submitOne(q, func(ctx context.Context) error { return fail }, SubmitOptions{
		Deadline: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := j.Wait(context.Background())
	elapsed := time.Since(start)
	if werr == nil {
		t.Fatal("job succeeded, want failure")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("job took %v; backoff was not capped by the deadline", elapsed)
	}
}

func TestRetryBackoffShiftOverflowClamped(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1, Backoff: time.Millisecond})
	for _, attempt := range []int{1, 5, 70, 1 << 20} {
		got := q.retryBackoff(context.Background(), attempt)
		if got <= 0 || got > maxBackoff {
			t.Errorf("retryBackoff(attempt=%d) = %v, want (0, %v]", attempt, got, maxBackoff)
		}
	}
	if got := q.retryBackoff(context.Background(), 3); got != 4*time.Millisecond {
		t.Errorf("retryBackoff(attempt=3) = %v, want 4ms", got)
	}
}

// TestTaskPanicRecovered: a panicking task fails its job (or retries,
// when the classifier says so) instead of killing the worker.
func TestTaskPanicRecovered(t *testing.T) {
	tel := telemetry.New()
	boom := errors.New("boom")
	q := newTestQueue(t, Config{
		Workers:    1,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		Retryable:  func(err error) bool { return errors.Is(err, boom) },
		Telemetry:  tel,
	})
	var calls atomic.Int64
	j, err := submitOne(q, func(ctx context.Context) error {
		if calls.Add(1) == 1 {
			panic(boom)
		}
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if werr := j.Wait(context.Background()); werr != nil {
		t.Fatalf("job failed despite retry after panic: %v", werr)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("task ran %d times, want 2 (panic then retry)", got)
	}
	if got := tel.Counter("jobqueue.panics").Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// A panic the classifier rejects fails the job; the worker survives
	// to run the next one.
	j2, err := submitOne(q, func(ctx context.Context) error { panic("unclassified") }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if werr := j2.Wait(context.Background()); werr == nil {
		t.Fatal("unclassified panic did not fail the job")
	} else if j2.State() != StateFailed {
		t.Fatalf("state %v, want failed", j2.State())
	}
	j3, err := submitOne(q, func(ctx context.Context) error { return nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if werr := j3.Wait(context.Background()); werr != nil {
		t.Fatalf("worker did not survive the panic: %v", werr)
	}
}

// TestJobRetiredBeforeSettle forces the interleaving in which a
// caller returning from Wait could still find its job in the running
// census: a job whose settle is stalled (the test holds its lock) must
// already be out of Stats().Running.
func TestJobRetiredBeforeSettle(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	j, err := submitOne(q, func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.mu.Lock() // settle blocks here until released below
	close(release)
	deadline := time.After(5 * time.Second)
	for q.Stats().Running != 0 {
		select {
		case <-deadline:
			j.mu.Unlock()
			t.Fatal("worker still counts the job as running while settling it")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-j.Done():
		t.Error("job settled while its lock was held")
	default:
	}
	j.mu.Unlock()
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Running != 0 {
		t.Fatalf("Stats after Wait = %+v, want nothing running", st)
	}
}

// TestTrySubmitBatchAtomic pins the group contract of Submit: a group
// is accepted whole with contiguous IDs and runs adjacently (one
// "jobqueue.batches" tick per Submit, one "jobqueue.submitted" tick
// per job), and a closed queue refuses it whole.
func TestTrySubmitBatchAtomic(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 1, Telemetry: tel})

	// Block the worker so the group stays pending until released;
	// wait for pickup so the blocker itself is out of the heap.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := submitOne(q, func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Int64
	task := func(ctx context.Context) error { ran.Add(1); return nil }

	jobs := make([]*Job, 3)
	group := []BatchTask{{Task: task, Opts: SubmitOptions{Priority: 3}}, {Task: task, Opts: SubmitOptions{Priority: 3}}, {Task: task, Opts: SubmitOptions{Priority: 3}}}
	if err := q.Submit(group, jobs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID() != jobs[i-1].ID()+1 {
			t.Fatalf("group IDs not contiguous: %d after %d", jobs[i].ID(), jobs[i-1].ID())
		}
	}
	if got := q.Stats().Pending; got != 3 {
		t.Fatalf("pending after group = %d, want 3", got)
	}

	close(release)
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d group tasks, want 3", got)
	}
	if got := tel.Counter("jobqueue.batches").Value(); got != 2 {
		t.Fatalf("jobqueue.batches = %d, want 2 (blocker + group)", got)
	}
	if got := tel.Counter("jobqueue.submitted").Value(); got != 4 {
		t.Fatalf("jobqueue.submitted = %d, want 4 (blocker + 3 group jobs)", got)
	}

	// Closed queue refuses groups outright, counting every member.
	q.Close()
	if err := q.Submit([]BatchTask{{Task: task}, {Task: task}}, jobs); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed queue: err = %v, want ErrClosed", err)
	}
	if got := tel.Counter("jobqueue.rejected").Value(); got != 2 {
		t.Fatalf("jobqueue.rejected = %d, want 2", got)
	}
}

// TestTrySubmitBatchValidation rejects empty groups, nil members and a
// job slice too short for the group before touching the queue.
func TestTrySubmitBatchValidation(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	jobs := make([]*Job, 2)
	if err := q.Submit(nil, jobs); err == nil {
		t.Fatal("empty group accepted")
	}
	task := func(ctx context.Context) error { return nil }
	if err := q.Submit([]BatchTask{{Task: task}, {}}, jobs); err == nil {
		t.Fatal("group with nil task accepted")
	}
	if err := q.Submit([]BatchTask{{Task: task}, {Task: task}}, jobs[:1]); err == nil {
		t.Fatal("group accepted into a short job slice")
	}
	if got := q.Stats().Pending; got != 0 {
		t.Fatalf("pending = %d after rejected groups, want 0", got)
	}
}

// TestTrySubmitBatchConcurrentWithSingles hammers Submit with groups
// and singles from racing submitters while workers drain, and checks
// the invariants that make groups safe to interleave: accepted groups
// keep contiguous ids (the lock is held across the whole group), and
// every accepted job runs exactly once. Run under -race this also
// exercises the submit counter paths for data races.
func TestTrySubmitBatchConcurrentWithSingles(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 2, Telemetry: tel})

	var ran atomic.Int64
	task := func(ctx context.Context) error { ran.Add(1); return nil }

	const submitters, rounds, batchLen = 4, 60, 3
	var wg sync.WaitGroup
	jobsCh := make(chan *Job, submitters*rounds*batchLen)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			size := 1
			if g%2 == 0 {
				size = batchLen
			}
			for i := 0; i < rounds; i++ {
				group := make([]BatchTask, size)
				for k := range group {
					group[k] = BatchTask{Task: task}
				}
				jobs := make([]*Job, size)
				if err := q.Submit(group, jobs); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				for k := 1; k < len(jobs); k++ {
					if jobs[k].ID() != jobs[k-1].ID()+1 {
						t.Errorf("group ids not contiguous under contention: %d after %d", jobs[k].ID(), jobs[k-1].ID())
					}
				}
				for _, j := range jobs {
					jobsCh <- j
				}
			}
		}(g)
	}
	wg.Wait()
	close(jobsCh)
	accepted := 0
	for j := range jobsCh {
		accepted++
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if got := ran.Load(); got != int64(accepted) {
		t.Errorf("ran %d tasks, accepted %d — accepted work was lost or duplicated", got, accepted)
	}
	if got := tel.Counter("jobqueue.submitted").Value(); got != uint64(accepted) {
		t.Errorf("jobqueue.submitted = %d, want %d", got, accepted)
	}
	if st := q.Stats(); st.Pending != 0 || st.Running != 0 {
		t.Errorf("Stats after drain = %+v, want idle", st)
	}
}

// TestSettledJobDropsTask: a job handle outlives its job (the server
// keeps one per job for its lifetime), so settling must release the
// task and everything its closure captured — both for a job that ran
// and for one canceled before it started.
func TestSettledJobDropsTask(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1})
	release := make(chan struct{})
	blocker, err := submitOne(q, func(ctx context.Context) error {
		<-release
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// submitCapturing enqueues a task whose closure holds the only
	// reference to an object with a finalizer.
	submitCapturing := func(finalized chan struct{}) *Job {
		obj := new([256]byte)
		runtime.SetFinalizer(obj, func(*[256]byte) { close(finalized) })
		j, err := submitOne(q, func(ctx context.Context) error {
			obj[0]++
			return nil
		}, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ranFinalized, canceledFinalized := make(chan struct{}), make(chan struct{})
	ran := submitCapturing(ranFinalized)
	canceled := submitCapturing(canceledFinalized)
	canceled.Cancel()
	close(release)
	for _, j := range []*Job{blocker, ran} {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := canceled.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: err = %v, want context.Canceled", err)
	}

	for _, c := range []struct {
		name string
		fin  chan struct{}
	}{{"ran", ranFinalized}, {"canceled", canceledFinalized}} {
		deadline := time.After(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-c.fin:
				done = true
			case <-deadline:
				t.Fatalf("%s job's task still reachable after settle", c.name)
			case <-time.After(time.Millisecond):
			}
		}
	}
	runtime.KeepAlive(ran)
	runtime.KeepAlive(canceled)
}
