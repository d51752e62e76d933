// Package jobqueue is a priority-aware work queue with a fixed worker
// pool — the execution backbone of the simulation service
// (internal/server, cmd/ampserve).
//
// Design points, in the order a job meets them:
//
//   - One enqueue: Submit takes a group of tasks and accepts all of
//     them or none, so a single job is a group of one. The queue sets
//     no depth bound of its own; the server refuses a group that would
//     pass its backlog bound before it calls Submit.
//   - Priority: pending jobs run highest Priority first; ties break by
//     submission order, so equal-priority traffic is FIFO and the
//     schedule is deterministic for a deterministic arrival order.
//   - Per-job context: every job runs under its own context, canceled
//     by Job.Cancel, by the job's Deadline, or by Close. A job
//     canceled while still pending never starts.
//   - Retry with backoff: a job whose task fails with an error the
//     configured classifier calls retryable (the server classifies
//     injected chaos panics, fault.ErrInjectedPanic) is re-run after
//     an exponentially growing backoff, up to MaxRetries times.
//   - A settled job drops its task, so a handle kept after the job
//     ends does not keep what the task captured alive.
//   - Drain: stop accepting, then wait for the backlog to finish —
//     the graceful half of SIGTERM handling.
//
// Telemetry (all under "jobqueue."): depth/running gauges; submitted,
// batches (one per accepted Submit), rejected, completed, failed,
// canceled, retries counters; wait_us and run_us histograms.
package jobqueue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ampsched/internal/telemetry"
)

// ErrClosed is returned by Submit after Drain or Close.
var ErrClosed = errors.New("jobqueue: closed")

// Task is one unit of work. It must honor ctx promptly: cancellation
// is the only way Drain and Close can make progress past a stuck job.
type Task func(ctx context.Context) error

// State is a job's lifecycle position.
type State int32

// Job states. Pending→Running→{Done,Failed}; Canceled can follow
// Pending or Running.
const (
	StatePending State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String renders the state for status APIs.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Config sizes a Queue.
type Config struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// MaxRetries bounds re-runs of a retryably failed job (0 = no
	// retries).
	MaxRetries int
	// Backoff is the first retry delay, doubling per attempt up to one
	// minute and never past the job's remaining Deadline; 0 means
	// 10ms. Backoff waits abort immediately on job cancellation.
	Backoff time.Duration
	// Retryable classifies errors worth re-running; nil means nothing
	// retries.
	Retryable func(error) bool
	// Telemetry receives queue metrics; nil disables them.
	Telemetry *telemetry.Telemetry
}

// SubmitOptions tune one job.
type SubmitOptions struct {
	// Priority orders pending jobs (higher first; default 0).
	Priority int
	// Deadline, when positive, bounds the job's total run time
	// (including retries and backoff waits).
	Deadline time.Duration
}

// Job is a handle on one submitted task.
type Job struct {
	id       uint64
	priority int
	seq      uint64
	task     Task
	deadline time.Duration

	q        *Queue
	ctx      context.Context
	cancel   context.CancelFunc
	index    int // heap index while pending; -1 otherwise
	attempts int

	mu    sync.Mutex
	state State
	err   error
	done  chan struct{}

	submitted time.Time
}

// ID returns the queue-unique job id.
func (j *Job) ID() uint64 { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the terminal error (nil while non-terminal or Done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Attempts returns how many times the task has started.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx ends, returning the
// job's terminal error (or ctx's).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel stops the job: a pending job is removed from the queue and
// never starts; a running job has its context canceled and finishes
// when its task returns. Cancel is idempotent and safe on terminal
// jobs.
func (j *Job) Cancel() { j.q.cancelJob(j) }

// settle moves the job to a terminal state exactly once. It drops the
// task: callers keep handles for as long as they like (the server, for
// its lifetime), and the task's closure must not live that long.
func (j *Job) settle(s State, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return false
	}
	j.state = s
	j.err = err
	j.task = nil
	close(j.done)
	return true
}

// Queue is the priority work queue. Create with New; a Queue
// must be Closed (or Drained) to stop its workers.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	pending jobHeap
	active  map[*Job]struct{}
	nextID  uint64
	nextSeq uint64
	closed  bool

	wg sync.WaitGroup

	depth     *telemetry.Gauge
	runningG  *telemetry.Gauge
	submitted *telemetry.Counter
	batches   *telemetry.Counter
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	retries   *telemetry.Counter
	panicked  *telemetry.Counter
	waitUS    *telemetry.Histogram
	runUS     *telemetry.Histogram
}

// New builds a Queue and starts its workers.
func New(cfg Config) (*Queue, error) {
	if cfg.Workers < 0 || cfg.MaxRetries < 0 || cfg.Backoff < 0 {
		return nil, fmt.Errorf("jobqueue: negative Config field")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	tel := cfg.Telemetry
	q := &Queue{
		cfg:       cfg,
		depth:     tel.Gauge("jobqueue.depth"),
		runningG:  tel.Gauge("jobqueue.running"),
		submitted: tel.Counter("jobqueue.submitted"),
		batches:   tel.Counter("jobqueue.batches"),
		rejected:  tel.Counter("jobqueue.rejected"),
		completed: tel.Counter("jobqueue.completed"),
		failed:    tel.Counter("jobqueue.failed"),
		canceled:  tel.Counter("jobqueue.canceled"),
		retries:   tel.Counter("jobqueue.retries"),
		panicked:  tel.Counter("jobqueue.panics"),
		waitUS:    tel.Histogram("jobqueue.wait_us"),
		runUS:     tel.Histogram("jobqueue.run_us"),
	}
	q.cond = sync.NewCond(&q.mu)
	q.active = make(map[*Job]struct{})
	for w := 0; w < cfg.Workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// BatchTask pairs one group member with its submit options.
type BatchTask struct {
	Task Task
	Opts SubmitOptions
}

// Submit enqueues a group of tasks all or nothing: every member is
// accepted under one lock acquisition, with contiguous sequence
// numbers so equal-priority members stay adjacent in the priority heap,
// or none is. jobs[i] receives the handle of tasks[i], so jobs must be
// at least as long as tasks. Submit fails on an empty group, a nil
// task, or ErrClosed after Drain/Close. An accepted group counts once
// on "jobqueue.batches" and per job on "jobqueue.submitted".
func (q *Queue) Submit(tasks []BatchTask, jobs []*Job) error {
	if len(tasks) == 0 {
		return fmt.Errorf("jobqueue: empty group")
	}
	if len(jobs) < len(tasks) {
		return fmt.Errorf("jobqueue: %d job slots for %d tasks", len(jobs), len(tasks))
	}
	for _, bt := range tasks {
		if bt.Task == nil {
			return fmt.Errorf("jobqueue: nil task in group")
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.rejected.Add(uint64(len(tasks)))
		return ErrClosed
	}
	now := time.Now() //ampvet:allow determinism queue wait-latency measurement is inherently wall-clock
	for i, bt := range tasks {
		q.nextID++
		q.nextSeq++
		//ampvet:allow ctxcheck jobs deliberately outlive the submitter's ctx; cancellation flows through Job.Cancel and queue shutdown instead
		jctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			id:        q.nextID,
			priority:  bt.Opts.Priority,
			seq:       q.nextSeq,
			task:      bt.Task,
			deadline:  bt.Opts.Deadline,
			q:         q,
			ctx:       jctx,
			cancel:    cancel,
			state:     StatePending,
			done:      make(chan struct{}),
			submitted: now,
		}
		heap.Push(&q.pending, j)
		jobs[i] = j
	}
	q.depth.Set(float64(len(q.pending)))
	q.submitted.Add(uint64(len(tasks)))
	q.batches.Inc()
	q.cond.Broadcast()
	return nil
}

// cancelJob implements Job.Cancel.
func (q *Queue) cancelJob(j *Job) {
	q.mu.Lock()
	if j.index >= 0 { // still pending: remove so it never starts
		heap.Remove(&q.pending, j.index)
		q.depth.Set(float64(len(q.pending)))
		q.cond.Broadcast() // Drain waits on the pending heap emptying
	}
	q.mu.Unlock()
	j.cancel()
	if j.settle(StateCanceled, context.Canceled) {
		q.canceled.Inc()
	}
}

// worker pops and runs jobs until the queue closes and empties.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.pending).(*Job)
		q.depth.Set(float64(len(q.pending)))
		q.active[j] = struct{}{}
		q.runningG.Set(float64(len(q.active)))
		q.mu.Unlock()

		q.run(j)
	}
}

// retire takes a popped job out of the running census. run calls it
// before settling the job, so a caller returning from Wait never sees
// the job in Stats.
func (q *Queue) retire(j *Job) {
	q.mu.Lock()
	delete(q.active, j)
	q.runningG.Set(float64(len(q.active)))
	q.cond.Broadcast() // Drain waits on the active set emptying
	q.mu.Unlock()
}

// run executes one popped job, applying deadline, retries and backoff,
// and retires it.
func (q *Queue) run(j *Job) {
	j.mu.Lock()
	if j.state != StatePending { // canceled between pop and run
		j.mu.Unlock()
		q.retire(j)
		return
	}
	j.state = StateRunning
	task := j.task // settle may clear j.task while this run still needs it
	j.mu.Unlock()

	start := time.Now() //ampvet:allow determinism job run-latency measurement is inherently wall-clock
	q.waitUS.Observe(uint64(start.Sub(j.submitted).Microseconds()))

	ctx := j.ctx
	cancelDeadline := func() {}
	if j.deadline > 0 {
		ctx, cancelDeadline = context.WithTimeout(ctx, j.deadline)
	}
	defer cancelDeadline()

	var err error
	for {
		j.mu.Lock()
		j.attempts++
		attempt := j.attempts
		j.mu.Unlock()
		err = q.runAttempt(ctx, task)
		if err == nil || ctx.Err() != nil {
			break
		}
		if q.cfg.Retryable == nil || !q.cfg.Retryable(err) || attempt > q.cfg.MaxRetries {
			break
		}
		q.retries.Inc()
		backoff := q.retryBackoff(ctx, attempt)
		if backoff <= 0 { // deadline already spent: don't bother retrying
			break
		}
		t := time.NewTimer(backoff) //ampvet:allow determinism retry backoff is inherently wall-clock
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			err = ctx.Err()
		}
		if ctx.Err() != nil {
			break
		}
	}
	q.runUS.Observe(uint64(time.Since(start).Microseconds())) //ampvet:allow determinism job run-latency measurement is inherently wall-clock

	q.retire(j)
	switch {
	case err == nil:
		if j.settle(StateDone, nil) {
			q.completed.Inc()
		}
	case errors.Is(err, context.Canceled):
		if j.settle(StateCanceled, err) {
			q.canceled.Inc()
		}
	default:
		if j.settle(StateFailed, err) {
			q.failed.Inc()
		}
	}
	j.cancel() // release the job context's resources
}

// runAttempt runs one task attempt, recovering a panic into an error
// so one exploding job cannot take a worker (and its queue share) down
// with it. A panic carrying an error is wrapped, so classifiers can
// errors.Is through it and decide whether the job retries.
func (q *Queue) runAttempt(ctx context.Context, task Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			q.panicked.Inc()
			if rerr, ok := r.(error); ok {
				err = fmt.Errorf("jobqueue: task panic: %w", rerr)
			} else {
				err = fmt.Errorf("jobqueue: task panic: %v", r)
			}
		}
	}()
	return task(ctx)
}

// maxBackoff bounds one retry sleep; past it, exponential growth stops.
const maxBackoff = time.Minute

// retryBackoff sizes the sleep before retry number `attempt`, clamping
// the exponential shift against overflow and capping the sleep at the
// job's remaining deadline — sleeping past the deadline would burn the
// whole budget waiting and then fail without the retry it was waiting
// for.
func (q *Queue) retryBackoff(ctx context.Context, attempt int) time.Duration {
	backoff := q.cfg.Backoff
	for i := 1; i < attempt && backoff < maxBackoff; i++ {
		backoff <<= 1
	}
	if backoff > maxBackoff || backoff <= 0 { // <= 0: shift overflowed
		backoff = maxBackoff
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < backoff { //ampvet:allow determinism deadline headroom is inherently wall-clock
			backoff = rem
		}
	}
	return backoff
}

// Drain stops accepting new jobs and waits until every pending and
// running job has finished, or ctx ends — in which case the remaining
// jobs are canceled (pending ones never start) and Drain waits for the
// workers to observe the cancellation before returning ctx's error.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()

	q.mu.Lock()
	for (len(q.pending) > 0 || len(q.active) > 0) && ctx.Err() == nil {
		q.cond.Wait()
	}
	q.mu.Unlock()

	if err := ctx.Err(); err != nil {
		q.abort()
		q.wg.Wait()
		return err
	}
	q.wg.Wait()
	return nil
}

// Close cancels every pending and running job and stops the workers.
// Safe after Drain; returns once the pool has exited.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.abort()
	q.wg.Wait()
}

// abort cancels everything still alive: pending jobs are settled
// canceled without starting; running jobs have their contexts
// canceled and are settled by their workers when the task returns.
func (q *Queue) abort() {
	q.mu.Lock()
	var victims []*Job
	for len(q.pending) > 0 {
		victims = append(victims, heap.Pop(&q.pending).(*Job))
	}
	q.depth.Set(0)
	running := make([]*Job, 0, len(q.active))
	for j := range q.active { //ampvet:allow determinism cancellation fan-out order is unobservable
		running = append(running, j)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, j := range victims {
		j.cancel()
		if j.settle(StateCanceled, context.Canceled) {
			q.canceled.Inc()
		}
	}
	for _, j := range running {
		j.cancel()
	}
}

// Stats is a point-in-time queue census.
type Stats struct {
	Pending int
	Running int
}

// Stats returns the current backlog sizes.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{Pending: len(q.pending), Running: len(q.active)}
}

// jobHeap orders pending jobs by (priority desc, seq asc).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x interface{}) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}
