package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// The job queue and each job's lifecycle. Admitted jobs wait in a
// priority heap, highest JobSpec.Priority first and equal priorities
// in arrival order, and a fixed pool of workers runs them one job per
// worker at a time. A job is pending, then running, then settles once
// into done, failed or canceled; settle is the only terminal
// transition, whoever ends the job: its worker, a DELETE, or the
// shutdown abort.

// ErrDraining marks a group refused because the server is draining or
// closed. The HTTP layer answers it with 503.
var ErrDraining = errors.New("server: draining")

// abortMsg is the error of a job canceled before it starts by Close, a
// timed-out Drain, or a submit record the journal could not take.
const abortMsg = "canceled before start"

// enqueue admits a group by the depth bound, names its jobs and queues
// them, all or none. The check and the push share qmu, so racing
// submitters cannot both pass against a backlog only one of them may
// grow, and the group takes adjacent sequence numbers. A recovered
// group (ids set) takes its journaled ids and skips the depth bound.
func (s *Server) enqueue(entries []*jobEntry, ids []string) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	if ids == nil && len(s.pending)+len(entries) > s.cfg.MaxPending {
		return fmt.Errorf("%w: %d pending + %d submitted exceeds %d",
			ErrQueueFull, len(s.pending), len(entries), s.cfg.MaxPending)
	}
	now := time.Now() //ampvet:allow determinism queue wait-latency measurement is inherently wall-clock
	// Only an admitted group draws ids, so refusals leave no gaps.
	for k, j := range entries {
		if ids != nil {
			j.id = ids[k]
		} else {
			j.id = s.idPrefix + strconv.FormatUint(s.nextID.Add(1), 10)
		}
		s.nextSeq++
		j.seq = s.nextSeq
		j.enqueued = now
		j.ctx, j.cancel = context.WithCancel(s.root)
		heap.Push(&s.pending, j)
	}
	s.depth.Set(float64(len(s.pending)))
	s.batches.Inc()
	s.qcond.Broadcast()
	return nil
}

// worker runs popped jobs until the server drains and the heap is
// empty.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		s.qmu.Lock()
		for len(s.pending) == 0 && !s.draining.Load() {
			s.qcond.Wait()
		}
		if len(s.pending) == 0 {
			s.qmu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*jobEntry)
		s.depth.Set(float64(len(s.pending)))
		s.running++
		s.runningG.Set(float64(s.running))
		s.qmu.Unlock()

		s.run(j)
	}
}

// run executes one popped job under its context, cut to timeout_ms,
// and settles it. The worker leaves the running census before the job
// settles, so a client that sees the job terminal never finds it
// counted running.
func (s *Server) run(j *jobEntry) {
	j.mu.Lock()
	p, runnable := j.plan, j.state == statePending
	if runnable {
		j.state = stateRunning
		j.wake()
	}
	j.mu.Unlock()
	if !runnable { // canceled between the pop and now
		s.retire()
		return
	}

	start := time.Now() //ampvet:allow determinism job run-latency measurement is inherently wall-clock
	s.waitUS.Observe(uint64(start.Sub(j.enqueued).Microseconds()))
	ctx, cancel := j.ctx, context.CancelFunc(func() {})
	if j.spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
	}
	err := s.runJob(ctx, j, p)
	cancel()
	s.jobLatencyUS.Observe(uint64(time.Since(start).Microseconds())) //ampvet:allow determinism job latency measurement is inherently wall-clock

	s.retire()
	switch {
	case err == nil:
		s.settle(j, stateDone, "")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.settle(j, stateCanceled, err.Error())
	default:
		s.settle(j, stateFailed, err.Error())
	}
	s.runUS.Observe(uint64(time.Since(start).Microseconds())) //ampvet:allow determinism job run-latency measurement is inherently wall-clock
}

// retire takes a finished job out of the running census.
func (s *Server) retire() {
	s.qmu.Lock()
	s.running--
	s.runningG.Set(float64(s.running))
	s.qmu.Unlock()
}

// cancelJob cancels j: a pending job leaves the heap and never starts;
// a running job's context ends and its worker stops at the next unit.
// A terminal job is left as it is.
func (s *Server) cancelJob(j *jobEntry, errMsg string) {
	s.qmu.Lock()
	if j.index >= 0 {
		heap.Remove(&s.pending, j.index)
		s.depth.Set(float64(len(s.pending)))
	}
	s.qmu.Unlock()
	s.settle(j, stateCanceled, errMsg)
}

// settle moves j to its terminal state st and reports whether it did:
// the first terminal state wins, and a later one changes nothing. The
// winner drops the job's plan and ends its context. A done job's cache
// entries are flushed before its done record is journaled, so a job
// the journal calls done has durable result bytes. Every caller
// settles synchronously, so its record lands before the journal
// closes.
func (s *Server) settle(j *jobEntry, st jobState, errMsg string) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = st
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.plan = nil
	j.wake()
	j.mu.Unlock()
	j.cancel()

	var err error
	switch st {
	case stateDone:
		s.flushCacheRetry()
		err = s.appendJournal(recDone, idRecord{ID: j.id})
		s.jobsCompleted.Inc()
	case stateFailed:
		err = s.appendJournal(recFail, failRecord{ID: j.id, Error: errMsg})
		s.jobsFailed.Inc()
	case stateCanceled:
		err = s.appendJournal(recCancel, idRecord{ID: j.id})
		s.jobsCanceled.Inc()
	}
	// Best effort beyond appendJournal's retries: a lost terminal record
	// only means the job re-runs, idempotently, after a crash.
	if err != nil {
		s.journalErrors.Inc()
	}
	return true
}

// stopAccepting refuses every later group and lets idle workers exit
// once the heap is empty.
func (s *Server) stopAccepting() {
	s.qmu.Lock()
	s.draining.Store(true)
	s.qcond.Broadcast()
	s.qmu.Unlock()
}

// abort cancels every live job: each pending one settles canceled here
// without starting, and each running one has its context ended and is
// settled by its worker.
func (s *Server) abort() {
	s.qmu.Lock()
	victims := make([]*jobEntry, 0, len(s.pending))
	for len(s.pending) > 0 {
		victims = append(victims, heap.Pop(&s.pending).(*jobEntry))
	}
	s.depth.Set(0)
	s.qmu.Unlock()
	s.abortJobs()
	for _, j := range victims {
		s.settle(j, stateCanceled, abortMsg)
	}
}

// Drain gracefully stops the service: refuse new jobs and let the
// workers finish the backlog, or, once ctx ends, cancel what is left
// (pending jobs never start) and wait for the workers to settle it.
// Then persist the cache and close the journal. Completed pair
// outcomes are never lost: they are already appended to their job
// entries and resident in the cache, which Save flushes.
func (s *Server) Drain(ctx context.Context) error {
	s.stopAccepting()
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		s.abort()
		<-idle
		err = ctx.Err()
	}
	return s.shutdown(err)
}

// Close cancels everything immediately, waits for the workers to
// settle it, then persists the cache and closes the journal.
func (s *Server) Close() error {
	s.stopAccepting()
	s.abort()
	s.workers.Wait()
	return s.shutdown(nil)
}

// shutdown stops the flusher, persists the cache and closes the
// journal, keeping err if it is set.
func (s *Server) shutdown(err error) error {
	s.stopFlusher()
	if serr := s.cache.Save(); serr != nil && err == nil {
		err = serr
	}
	if s.journal != nil {
		if jerr := s.journal.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// jobHeap orders pending jobs by (priority desc, seq asc).
type jobHeap []*jobEntry

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*jobEntry)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}
