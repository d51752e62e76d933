package jobqueue

import (
	"context"
	"errors"
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

func TestSubmitAndComplete(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 2, Capacity: 16, Telemetry: tel})
	var ran atomic.Int64
	var jobs []*Job
	for i := 0; i < 10; i++ {
		j, err := q.TrySubmit(func(ctx context.Context) error {
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
	q := newTestQueue(t, Config{Workers: 1, Capacity: 16})

	// Block the single worker so submissions pile up in the heap.
	release := make(chan struct{})
	blocker, err := q.TrySubmit(func(ctx context.Context) error {
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
		j, err := q.TrySubmit(func(ctx context.Context) error {
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

func TestQueueFullBackpressure(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 1, Capacity: 2, Telemetry: tel})

	release := make(chan struct{})
	defer close(release)
	if _, err := q.TrySubmit(func(ctx context.Context) error {
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
	// Fill the pending heap to the high-water mark.
	for i := 0; i < 2; i++ {
		if _, err := q.TrySubmit(func(ctx context.Context) error { return nil }, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.TrySubmit(func(ctx context.Context) error { return nil }, SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error %v, want ErrQueueFull", err)
	}
	if got := tel.Counter("jobqueue.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	// A blocking Submit with a canceled context surfaces the context
	// error instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Submit(ctx, func(ctx context.Context) error { return nil }, SubmitOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit error %v, want deadline exceeded", err)
	}
}

func TestCancelPendingJobNeverRuns(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1, Capacity: 8})
	release := make(chan struct{})
	defer close(release)
	if _, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	q, err := New(Config{Workers: 2, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	for i := 0; i < 12; i++ {
		if _, err := q.TrySubmit(func(ctx context.Context) error {
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
	if _, err := q.TrySubmit(func(ctx context.Context) error { return nil }, SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submit error %v, want ErrClosed", err)
	}
}

func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	q, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j, err := q.TrySubmit(func(ctx context.Context) error { return fail }, SubmitOptions{
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
	j, err := q.TrySubmit(func(ctx context.Context) error {
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
	j2, err := q.TrySubmit(func(ctx context.Context) error { panic("unclassified") }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if werr := j2.Wait(context.Background()); werr == nil {
		t.Fatal("unclassified panic did not fail the job")
	} else if j2.State() != StateFailed {
		t.Fatalf("state %v, want failed", j2.State())
	}
	j3, err := q.TrySubmit(func(ctx context.Context) error { return nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if werr := j3.Wait(context.Background()); werr != nil {
		t.Fatalf("worker did not survive the panic: %v", werr)
	}
}

// TestCostAccounting tracks PendingCost/RunningCost through the job
// lifecycle: pile jobs behind a blocked worker, then release.
func TestCostAccounting(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 1, Capacity: 16, Telemetry: tel})
	release := make(chan struct{})
	blocker, err := q.TrySubmit(func(ctx context.Context) error {
		<-release
		return nil
	}, SubmitOptions{Cost: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Let the blocker start so its cost moves pending -> running.
	deadline := time.After(5 * time.Second)
	for blocker.State() != StateRunning {
		select {
		case <-deadline:
			t.Fatal("blocker never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := q.TrySubmit(func(ctx context.Context) error { return nil }, SubmitOptions{Cost: 10})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	st := q.Stats()
	if st.PendingCost != 30 || st.RunningCost != 5 {
		t.Fatalf("Stats = %+v, want PendingCost 30 RunningCost 5", st)
	}
	if got := tel.Gauge("jobqueue.pending_cost").Value(); got != 30 {
		t.Fatalf("pending_cost gauge = %v, want 30", got)
	}

	// Cancel one pending job: its cost leaves the backlog.
	jobs[2].Cancel()
	if st := q.Stats(); st.PendingCost != 20 {
		t.Fatalf("PendingCost after cancel = %v, want 20", st.PendingCost)
	}

	close(release)
	for _, j := range append(jobs[:2], blocker) {
		j.Wait(context.Background())
	}
	if st := q.Stats(); st.PendingCost != 0 || st.RunningCost != 0 {
		t.Fatalf("Stats after drain = %+v, want zero costs", st)
	}
}

// TestCostRetiredBeforeSettle forces the interleaving that made
// TestCostAccounting flaky: a job whose settle is stalled (the test
// holds its lock) must already be out of the running census, so a
// caller returning from Wait never reads a RunningCost that still
// counts it.
func TestCostRetiredBeforeSettle(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1, Capacity: 4})
	started, release := make(chan struct{}), make(chan struct{})
	j, err := q.TrySubmit(func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}, SubmitOptions{Cost: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.mu.Lock() // settle blocks here until released below
	close(release)
	deadline := time.After(5 * time.Second)
	for q.Stats().RunningCost != 0 {
		select {
		case <-deadline:
			j.mu.Unlock()
			t.Fatal("worker still counts the job's cost while settling it")
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
	if st := q.Stats(); st.Running != 0 || st.RunningCost != 0 {
		t.Fatalf("Stats after Wait = %+v, want nothing running", st)
	}
}

// TestTrySubmitBatchAtomic pins the batch contract: a group that fits
// is accepted whole with contiguous IDs and runs adjacently (one
// "jobqueue.batches" tick, one "jobqueue.submitted" tick per job),
// and a group that does not fit is rejected whole — no partial
// enqueue.
func TestTrySubmitBatchAtomic(t *testing.T) {
	tel := telemetry.New()
	q := newTestQueue(t, Config{Workers: 1, Capacity: 4, Telemetry: tel})

	// Block the worker so pending occupancy is under test control;
	// wait for pickup so the blocker itself is out of the heap.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := q.TrySubmit(func(ctx context.Context) error {
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

	jobs, err := q.TrySubmitBatch([]BatchTask{{Task: task, Opts: SubmitOptions{Priority: 3}}, {Task: task, Opts: SubmitOptions{Priority: 3}}, {Task: task, Opts: SubmitOptions{Priority: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("accepted %d jobs, want 3", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].ID() != jobs[i-1].ID()+1 {
			t.Fatalf("batch IDs not contiguous: %d after %d", jobs[i].ID(), jobs[i-1].ID())
		}
	}

	// 3 pending + 1 more would cross Capacity=4: the whole group
	// bounces and nothing of it lands in the heap.
	if _, err := q.TrySubmitBatch([]BatchTask{{Task: task}, {Task: task}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull batch: err = %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Pending; got != 3 {
		t.Fatalf("pending after rejected batch = %d, want 3 (partial enqueue?)", got)
	}

	// A single-slot batch still fits exactly at the high-water mark.
	one, err := q.TrySubmitBatch([]BatchTask{{Task: task}})
	if err != nil {
		t.Fatal(err)
	}

	close(release)
	for _, j := range append(jobs, one...) {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d batch tasks, want 4", got)
	}
	if got := tel.Counter("jobqueue.batches").Value(); got != 2 {
		t.Fatalf("jobqueue.batches = %d, want 2", got)
	}
	if got := tel.Counter("jobqueue.submitted").Value(); got != 5 {
		t.Fatalf("jobqueue.submitted = %d, want 5 (blocker + 4 batch jobs)", got)
	}

	// Closed queue refuses batches outright.
	q.Close()
	if _, err := q.TrySubmitBatch([]BatchTask{{Task: task}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed queue: err = %v, want ErrClosed", err)
	}
}

// TestTrySubmitBatchValidation rejects empty groups and nil members
// before touching the queue.
func TestTrySubmitBatchValidation(t *testing.T) {
	q := newTestQueue(t, Config{Workers: 1, Capacity: 4})
	if _, err := q.TrySubmitBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	task := func(ctx context.Context) error { return nil }
	if _, err := q.TrySubmitBatch([]BatchTask{{Task: task}, {}}); err == nil {
		t.Fatal("batch with nil task accepted")
	}
	if got := q.Stats().Pending; got != 0 {
		t.Fatalf("pending = %d after rejected batches, want 0", got)
	}
}

// TestTrySubmitBatchOversized pins the degenerate rejection: a batch
// larger than Capacity bounces even against an empty queue (it can
// never fit, so blocking or partial admission would both be wrong),
// counts every member on "jobqueue.rejected", and leaves the queue
// usable for a batch that exactly fills it.
func TestTrySubmitBatchOversized(t *testing.T) {
	tel := telemetry.New()
	const capacity = 4
	q := newTestQueue(t, Config{Workers: 1, Capacity: capacity, Telemetry: tel})

	// Park the worker so admitted jobs stay pending and countable.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := q.TrySubmit(func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	task := func(ctx context.Context) error { return nil }
	over := make([]BatchTask, capacity+1)
	for i := range over {
		over[i] = BatchTask{Task: task}
	}
	if _, err := q.TrySubmitBatch(over); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch on empty queue: err = %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Pending; got != 0 {
		t.Fatalf("pending after oversized bounce = %d, want 0 (partial enqueue?)", got)
	}
	if got := tel.Counter("jobqueue.rejected").Value(); got != capacity+1 {
		t.Fatalf("jobqueue.rejected = %d, want %d (every member of the bounced batch)", got, capacity+1)
	}

	// Exactly Capacity still fits: the bounce above must not have
	// consumed slots, ids, or wedged the lock.
	full, err := q.TrySubmitBatch(over[:capacity])
	if err != nil {
		t.Fatalf("capacity-sized batch after bounce: %v", err)
	}
	close(release)
	for _, j := range append(full, blocker) {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrySubmitBatchConcurrentWithSingles hammers TrySubmitBatch and
// TrySubmit from racing submitters while workers drain, and checks the
// invariants that make the batch path safe to interleave: pending
// occupancy never exceeds Capacity, accepted batches keep contiguous
// ids (the lock is held across the whole group), and every accepted
// job runs exactly once. Run under -race this also exercises the
// submit/reject counter paths for data races.
func TestTrySubmitBatchConcurrentWithSingles(t *testing.T) {
	tel := telemetry.New()
	const capacity = 8
	q := newTestQueue(t, Config{Workers: 2, Capacity: capacity, Telemetry: tel})

	var ran atomic.Int64
	task := func(ctx context.Context) error { ran.Add(1); return nil }

	// Occupancy sampler: Stats() is the public view, so a transient
	// overshoot would be observable by admission control and clients.
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	var overCap atomic.Int64
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-stopSample:
				return
			default:
				if got := q.Stats().Pending; got > capacity {
					overCap.Store(int64(got))
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const submitters, rounds, batchLen = 4, 60, 3
	var wg sync.WaitGroup
	var accepted atomic.Int64
	jobsCh := make(chan *Job, submitters*rounds*batchLen)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					batch := make([]BatchTask, batchLen)
					for k := range batch {
						batch[k] = BatchTask{Task: task}
					}
					jobs, err := q.TrySubmitBatch(batch)
					if err != nil {
						if !errors.Is(err, ErrQueueFull) {
							t.Errorf("batch submit: %v", err)
						}
						continue
					}
					for k := 1; k < len(jobs); k++ {
						if jobs[k].ID() != jobs[k-1].ID()+1 {
							t.Errorf("batch ids not contiguous under contention: %d after %d", jobs[k].ID(), jobs[k-1].ID())
						}
					}
					accepted.Add(batchLen)
					for _, j := range jobs {
						jobsCh <- j
					}
				} else {
					j, err := q.TrySubmit(task, SubmitOptions{})
					if err != nil {
						if !errors.Is(err, ErrQueueFull) {
							t.Errorf("single submit: %v", err)
						}
						continue
					}
					accepted.Add(1)
					jobsCh <- j
				}
			}
		}(g)
	}
	wg.Wait()
	close(jobsCh)
	for j := range jobsCh {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stopSample)
	<-sampleDone

	if oc := overCap.Load(); oc != 0 {
		t.Errorf("observed %d pending jobs, capacity is %d", oc, capacity)
	}
	if got := ran.Load(); got != accepted.Load() {
		t.Errorf("ran %d tasks, accepted %d — accepted work was lost or duplicated", got, accepted.Load())
	}
	if got := tel.Counter("jobqueue.submitted").Value(); got != uint64(accepted.Load()) {
		t.Errorf("jobqueue.submitted = %d, want %d", got, accepted.Load())
	}
	if st := q.Stats(); st.Pending != 0 || st.Running != 0 {
		t.Errorf("Stats after drain = %+v, want idle", st)
	}
}
