// Pair batching: the server's only pair compute path. Queue workers
// running jobs against the same Runner — the grouping that guarantees
// identical core digest, options and fidelity, since runners are
// deduplicated on exactly those — hand their pair computations to a
// shared pairBatcher. The batcher coalesces requests across jobs (and
// across one job's own in-flight window) and executes each group as a
// single experiments.RunPairsBatch interleaved pass of up to
// Runner.PairsPerPass pairs. A run's result does not depend on its
// batchmates — the batch engine's identity suite pins that — so
// batching is invisible to the cache and the API.
package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
	"ampsched/internal/telemetry"
)

// batchLinger is how long the first request in an empty batch waits
// for companions before flushing anyway. Two milliseconds is invisible
// next to a simulation run but long enough for a job's in-flight
// window (launched together) to land in one group.
const batchLinger = 2 * time.Millisecond

// pairResp is one request's share of a finished batch.
type pairResp struct {
	proposed, hpe, rr amp.Result
	err               error
}

// pairReq is one queued pair-compute request.
type pairReq struct {
	ctx  context.Context // the requesting job's
	idx  int
	pair experiments.Pair
	resp chan pairResp // buffered; the flusher never blocks on delivery
}

// pairBatcher coalesces pair-compute requests against one shared
// Runner. Requests accumulate until the group reaches maxPairs or the
// linger timer fires, then flush as one interleaved pass.
type pairBatcher struct {
	runner   *experiments.Runner
	ctx      context.Context // server lifetime: Close ends every batch
	maxPairs int

	batches *telemetry.Counter
	pairs   *telemetry.Counter

	mu    sync.Mutex
	reqs  []*pairReq
	timer *time.Timer
}

func newPairBatcher(ctx context.Context, runner *experiments.Runner, tel *telemetry.Telemetry) *pairBatcher {
	return &pairBatcher{
		runner:   runner,
		ctx:      ctx,
		maxPairs: runner.PairsPerPass(),
		batches:  tel.Counter("server.pair_batches"),
		pairs:    tel.Counter("server.batched_pairs"),
	}
}

// run submits one pair's three-scheduler comparison and blocks until
// its batch completes or ctx ends. An abandoned request (ctx canceled
// while waiting) still computes with its batch unless every request in
// the batch is abandoned; only the caller stops listening.
func (b *pairBatcher) run(ctx context.Context, i int, p experiments.Pair) (proposed, hpe, rr amp.Result, err error) {
	req := &pairReq{ctx: ctx, idx: i, pair: p, resp: make(chan pairResp, 1)}
	b.mu.Lock()
	b.reqs = append(b.reqs, req)
	var full []*pairReq
	if len(b.reqs) >= b.maxPairs {
		full = b.take()
	} else if len(b.reqs) == 1 {
		// The linger timer bounds how long a lone request waits for
		// batchmates; it schedules RPC-level work and never touches
		// simulation state.
		b.timer = time.AfterFunc(batchLinger, b.flushLinger) //ampvet:allow determinism batching latency only; results are byte-identical on every path
	}
	b.mu.Unlock()
	if full != nil {
		b.flush(full)
	}
	select {
	case r := <-req.resp:
		if r.err != nil && ctx.Err() != nil {
			// The batch stopped because its requests were abandoned:
			// report this request's own reason (a deadline, say).
			r.err = ctx.Err()
		}
		return r.proposed, r.hpe, r.rr, r.err
	case <-ctx.Done():
		return amp.Result{}, amp.Result{}, amp.Result{}, ctx.Err()
	}
}

// take claims the pending group and disarms the linger timer; callers
// hold b.mu.
func (b *pairBatcher) take() []*pairReq {
	reqs := b.reqs
	b.reqs = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return reqs
}

// flushLinger is the timer path; a group already flushed at the
// high-water mark leaves nothing to take.
func (b *pairBatcher) flushLinger() {
	b.mu.Lock()
	reqs := b.take()
	b.mu.Unlock()
	b.flush(reqs)
}

// flush executes one group as a single interleaved pass and delivers
// each request's three results. Runs fail independently inside the
// pass, so one wedged pair degrades only its own request.
//
// A batch serves many jobs, so no one job's cancellation may end it:
// it runs until the server closes or every request in it has been
// abandoned. A one-pair batch therefore stops with its job.
func (b *pairBatcher) flush(reqs []*pairReq) {
	if len(reqs) == 0 {
		return
	}
	m, merr := b.runner.Matrix()
	if merr != nil {
		for _, rq := range reqs {
			rq.resp <- pairResp{err: merr}
		}
		return
	}
	ctx, cancel := context.WithCancel(b.ctx)
	defer cancel()
	var live atomic.Int64
	live.Store(int64(len(reqs)))
	for _, rq := range reqs {
		stop := context.AfterFunc(rq.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
		defer stop()
	}

	runs := make([]experiments.PairRun, 0, 3*len(reqs))
	for _, rq := range reqs {
		runs = append(runs,
			experiments.PairRun{Index: rq.idx, Pair: rq.pair, Factory: b.runner.ProposedFactory()},
			experiments.PairRun{Index: rq.idx, Pair: rq.pair, Factory: b.runner.HPEFactory(m)},
			experiments.PairRun{Index: rq.idx, Pair: rq.pair, Factory: b.runner.RRFactory(1)},
		)
	}
	b.runner.RunPairsBatch(ctx, runs)
	b.batches.Inc()
	b.pairs.Add(uint64(len(reqs)))
	for k, rq := range reqs {
		resp := pairResp{
			proposed: runs[3*k].Result,
			hpe:      runs[3*k+1].Result,
			rr:       runs[3*k+2].Result,
		}
		for j := 3 * k; j < 3*k+3; j++ {
			if runs[j].Err != nil {
				resp.err = runs[j].Err
				break
			}
		}
		rq.resp <- resp
	}
}

// batcherFor returns the shared batcher for runner, creating it on
// first use.
func (s *Server) batcherFor(runner *experiments.Runner) *pairBatcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batchers[runner]
	if !ok {
		b = newPairBatcher(s.batchCtx, runner, s.tel)
		s.batchers[runner] = b
	}
	return b
}
