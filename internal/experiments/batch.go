package experiments

import (
	"context"
	"fmt"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/fault"
	"ampsched/internal/interval"
	"ampsched/internal/metrics"
	"ampsched/internal/monitor"
	"ampsched/internal/profilegen"
	"ampsched/internal/sched"
)

// Pair execution: every pair run — the sweep's, the server's and each
// RunPair call's — goes through RunPairsBatch, which feeds
// interval.BatchRunner. Many pair runs — each an independent
// (threads, system, scheduler) triple — are advanced through one
// interleaved pass, so runs that share calibration and phase tables
// keep them cache-resident across the whole batch. A lone run is a
// batch of one.
//
// Interleaving is invisible to results: runs share no mutable state,
// so a run in a batch of N is bit-identical to the same run in a batch
// of one (TestRunPairsBatchMatchesPairAtATime pins this at every
// fidelity).

// PairRun is one scheduler run of one pair inside a batch, and the
// outcome RunPairsBatch stores back into it.
type PairRun struct {
	// Index is the pair's sweep index; it seeds the workloads, so the
	// same (Index, Pair) always sees identical instruction streams.
	Index int
	Pair  Pair
	// Factory builds the run's scheduler (nil = static assignment).
	Factory SchedFactory

	// Result and Err are the run's outcome, with RunPairContext's
	// contract: a wedged, canceled or panicked run reports its error
	// (Result holds what was salvaged).
	Result amp.Result
	Err    error
}

// PairsPerPass is how many pairs (three scheduler runs each) share one
// interleaved pass: the sweep's chunk claim and the server's pair
// batcher both read it. Interval runs take about a millisecond and win
// from sharing tables and pooled systems across a 24-run pass. A
// detailed or sampled pair runs for seconds: a larger chunk would only
// hold each pair's delivery to the end of its chunk and leave sweep
// workers idle behind uneven chunks.
func (r *Runner) PairsPerPass() int {
	if r.Opt.Fidelity == interval.FidelityInterval {
		return 8
	}
	return 1
}

// batchRun is one run's reusable state inside a worker's batch
// scratch. The stepper is a value so re-arming it per run allocates
// nothing.
type batchRun struct {
	threads [2]amp.Thread
	// sys, between batches, is a system Reset can re-arm; a run that
	// cannot return its system to the pool clears it.
	sys *amp.System
	st  amp.Stepper
	// perRun marks a system built with per-run construction state (an
	// event observer or a fault plan); it never re-enters the pool.
	perRun bool
	// panicked is the value a panicking scheduler raised inside Step.
	panicked any
}

// Step implements interval.PairStepper. A panic fails only this run:
// it completes with the panic recorded and the batch's other runs keep
// stepping.
func (b *batchRun) Step(windows int) (done bool) {
	defer func() {
		if rec := recover(); rec != nil {
			b.panicked = rec
			done = true
		}
	}()
	return b.st.Step(windows)
}

// batchScratch is one worker's reusable batched-run state, pooled on
// Runner.batchPool.
type batchScratch struct {
	runs []*batchRun
	br   interval.BatchRunner
}

// grow makes sure the scratch holds at least n runs.
func (sc *batchScratch) grow(n int) {
	for len(sc.runs) < n {
		sc.runs = append(sc.runs, &batchRun{})
	}
}

// RunPairsBatch executes runs in one interleaved pass, storing each
// run's outcome in its Result and Err. Each run fails independently: a
// wedged, canceled or panicking run reports its error without
// disturbing the others. Fault plans and RunObserver observers are
// armed per run.
//
// Run state is pooled: the threads are always reused (generators
// re-seeded in place), and at fidelities whose engines implement
// cpu.StateResetter the whole system is too (amp.System.Reset). Both
// resets are bit-identical to fresh construction, so pooling is
// invisible to results — including under the parallel sweep, where
// pool reuse order is scheduling-dependent.
func (r *Runner) RunPairsBatch(ctx context.Context, runs []PairRun) {
	if len(runs) == 0 {
		return
	}
	start := time.Now() //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
	sc, _ := r.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	sc.grow(len(runs))
	sc.br.Windows = r.batchWindows
	for i := range runs {
		pr := &runs[i]
		pr.Result = amp.Result{}
		if pr.Err = r.arm(ctx, sc.runs[i], pr); pr.Err == nil {
			sc.br.Add(sc.runs[i])
		}
	}
	sc.br.Run()
	// Per-run wall time cannot be attributed inside an interleaved
	// pass; the histogram gets each run's share of the batch instead.
	share := time.Since(start) / time.Duration(len(runs)) //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
	for i := range runs {
		pr, b := &runs[i], sc.runs[i]
		switch {
		case pr.Err != nil: // never armed
		case b.panicked != nil:
			pr.Err = fmt.Errorf("experiments: pair %s panicked: %v", pr.Pair.Label(), b.panicked)
			b.sys, b.panicked = nil, nil
		default:
			pr.Result, pr.Err = b.st.Result()
			if pr.Err != nil {
				pr.Err = fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), pr.Err)
			}
			if b.perRun || !b.sys.Poolable() {
				b.sys = nil
			}
		}
		if b.sys == nil {
			b.st = amp.Stepper{} // the pooled scratch must not keep a dropped system alive
		}
		r.observeRun(pr.Pair, share, pr.Err)
	}
	r.batchPool.Put(sc)
}

// arm builds run pr into b and readies its stepper. A scheduler
// factory or system constructor that panics fails only this run.
func (r *Runner) arm(ctx context.Context, b *batchRun, pr *PairRun) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			b.sys = nil // possibly half reset: never reuse it
			err = fmt.Errorf("experiments: pair %s panicked: %v", pr.Pair.Label(), rec)
		}
	}()
	_, schedOpts, ampOpts, err := r.runOpts()
	if err != nil {
		return fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), err)
	}
	// Fault plans and observers are per-run state: append them onto
	// copies of the cached option slices. These runs allocate freely —
	// fault sweeps and instrumented runs are not the hot benchmark.
	perRun := false
	if r.Opt.FaultRate > 0 {
		plan := fault.MustNew(fault.Uniform(r.Opt.FaultRate, r.faultSeed(pr.Index)))
		plan.SetTelemetry(r.Telemetry)
		ampOpts = append(append([]amp.Option{}, ampOpts...), amp.WithFaultPlan(plan))
		var tag uint64
		schedOpts = append(append([]sched.Option{}, schedOpts...),
			sched.WithObserverFactory(func(window uint64) monitor.Observer {
				tag++
				return plan.Observer(monitor.NewWindowTracker(window), tag)
			}))
		perRun = true
	}
	if r.RunObserver != nil {
		if o := r.RunObserver(pr.Index, pr.Pair); o != nil {
			ampOpts = append(append([]amp.Option{}, ampOpts...), amp.WithObserver(o))
			perRun = true
		}
	}

	if b.sys != nil {
		// Flush the previous run's deferred engine state into the old
		// threads before recycling them (see System.Detach).
		b.sys.Detach()
	}
	b.threads[0].Reset(0, pr.Pair.A, r.pairSeed(pr.Index, 0), 0)
	b.threads[1].Reset(1, pr.Pair.B, r.pairSeed(pr.Index, 1), 1<<40)
	threads := [2]*amp.Thread{&b.threads[0], &b.threads[1]}
	var s amp.MoveScheduler
	if pr.Factory != nil {
		s = pr.Factory(schedOpts...)
	}
	cfg := amp.Config{
		SwapOverheadCycles: r.Opt.SwapOverhead,
		CycleBudget:        r.Opt.CycleBudget,
	}
	if b.sys != nil && !perRun {
		err = b.sys.Reset(threads, s, cfg)
	} else {
		b.sys, err = amp.NewSystem([2]*cpu.Config{r.IntCfg, r.FPCfg}, threads, s, cfg, ampOpts...)
	}
	if err != nil {
		b.sys = nil
		return fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), err)
	}
	b.perRun = perRun
	b.st.Reset(b.sys, ctx, r.Opt.InstrLimit)
	return nil
}

// runOutcomeBatch runs a chunk of sweep pairs under the three schemes
// (all the chunk's runs advance through one interleaved pass) and
// downgrades any failure to a flagged outcome.
func (r *Runner) runOutcomeBatch(ctx context.Context, idxs []int, pairs []Pair, matrix *profilegen.RatioMatrix, out []PairOutcome) {
	proposed, hpe, rr := r.ProposedFactory(), r.HPEFactory(matrix), r.RRFactory(1)
	runs := make([]PairRun, 0, 3*len(idxs))
	for _, i := range idxs {
		p := pairs[i]
		runs = append(runs,
			PairRun{Index: i, Pair: p, Factory: proposed},
			PairRun{Index: i, Pair: p, Factory: hpe},
			PairRun{Index: i, Pair: p, Factory: rr})
	}
	r.RunPairsBatch(ctx, runs)
	for k, i := range idxs {
		po := PairOutcome{Pair: pairs[i], Proposed: runs[3*k].Result, HPE: runs[3*k+1].Result, RR: runs[3*k+2].Result}
		var err error
		for j := 3 * k; j < 3*k+3 && err == nil; j++ {
			err = runs[j].Err
		}
		if err == nil {
			if po.VsHPE, err = metrics.Compare(po.Proposed, po.HPE); err == nil {
				po.VsRR, err = metrics.Compare(po.Proposed, po.RR)
			}
		}
		if err != nil {
			po.Failed = true
			po.Err = err.Error()
		}
		out[i] = po
	}
}
