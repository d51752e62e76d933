package experiments

import (
	"context"
	"fmt"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/fault"
	"ampsched/internal/metrics"
	"ampsched/internal/monitor"
	"ampsched/internal/sched"
)

// Pair execution: every pair run — the sweep's, the server's and each
// RunPair call's — goes through RunPairsBatch, which runs its runs one
// after another, each to completion, on one pooled set of threads and
// (where the engines allow it) one pooled system. A lone run is a
// batch of one.
//
// Pooling is invisible to results: the threads and the system are
// reset in place, bit-identically to fresh construction, so a run in a
// batch of N is bit-identical to the same run in a batch of one
// (TestRunPairsBatchMatchesPairAtATime pins this at every fidelity).

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

// runScratch is one caller's reusable run state, pooled on
// Runner.scratch.
type runScratch struct {
	threads [2]amp.Thread
	// sys, between runs, is a system Reset can re-arm; a run that
	// cannot return its system to the pool clears it.
	sys *amp.System
	// perRun marks a system built with per-run construction state (an
	// event observer or a fault plan); it never re-enters the pool.
	perRun bool
}

// RunPairsBatch executes runs one after another, storing each run's
// outcome in its Result and Err. Each run fails independently: a
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
	sc, _ := r.scratch.Get().(*runScratch)
	if sc == nil {
		sc = &runScratch{}
	}
	for i := range runs {
		pr := &runs[i]
		start := time.Now() //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
		pr.Result, pr.Err = r.runOne(ctx, sc, pr)
		r.observeRun(pr.Pair, time.Since(start), pr.Err) //ampvet:allow determinism wall-time only feeds the pair-duration histogram, never results
	}
	r.scratch.Put(sc)
}

// runOne arms pr on sc and runs it to completion. A scheduler factory,
// system constructor or run that panics fails only this run, and its
// system never re-enters the pool.
func (r *Runner) runOne(ctx context.Context, sc *runScratch, pr *PairRun) (res amp.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sc.sys = nil // possibly half reset or half run: never reuse it
			res, err = amp.Result{}, fmt.Errorf("experiments: pair %s panicked: %v", pr.Pair.Label(), rec)
		}
	}()
	if err := r.arm(sc, pr); err != nil {
		return amp.Result{}, fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), err)
	}
	res, err = sc.sys.RunContext(ctx, r.Opt.InstrLimit)
	if err != nil {
		err = fmt.Errorf("experiments: pair %s: %w", pr.Pair.Label(), err)
	}
	if sc.perRun || !sc.sys.Poolable() {
		sc.sys = nil
	}
	return res, err
}

// arm builds run pr into sc: the threads re-seeded in place, and the
// pooled system reset or a new one built.
func (r *Runner) arm(sc *runScratch, pr *PairRun) error {
	_, schedOpts, ampOpts, err := r.runOpts()
	if err != nil {
		return err
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

	if sc.sys != nil {
		// Flush the previous run's deferred engine state into the old
		// threads before recycling them (see System.Detach).
		sc.sys.Detach()
	}
	sc.threads[0].Reset(0, pr.Pair.A, r.pairSeed(pr.Index, 0), 0)
	sc.threads[1].Reset(1, pr.Pair.B, r.pairSeed(pr.Index, 1), 1<<40)
	threads := [2]*amp.Thread{&sc.threads[0], &sc.threads[1]}
	var s amp.MoveScheduler
	if pr.Factory != nil {
		s = pr.Factory(schedOpts...)
	}
	cfg := amp.Config{
		SwapOverheadCycles: r.Opt.SwapOverhead,
		CycleBudget:        r.Opt.CycleBudget,
	}
	if sc.sys != nil && !perRun {
		err = sc.sys.Reset(threads, s, cfg)
	} else {
		sc.sys, err = amp.NewSystem([2]*cpu.Config{r.IntCfg, r.FPCfg}, threads, s, cfg, ampOpts...)
	}
	if err != nil {
		sc.sys = nil
		return err
	}
	sc.perRun = perRun
	return nil
}

// RunComparison runs pair i's three scheduler runs — Proposed, HPE on
// the ratio matrix, and Round Robin at the context-switch interval —
// one after another, and returns their results with the first run's
// error. The sweep and the server compare pairs through it.
func (r *Runner) RunComparison(ctx context.Context, i int, p Pair) (proposed, hpe, rr amp.Result, err error) {
	matrix, err := r.Matrix()
	if err != nil {
		return amp.Result{}, amp.Result{}, amp.Result{}, err
	}
	runs := [3]PairRun{
		{Index: i, Pair: p, Factory: r.ProposedFactory()},
		{Index: i, Pair: p, Factory: r.HPEFactory(matrix)},
		{Index: i, Pair: p, Factory: r.RRFactory(1)},
	}
	r.RunPairsBatch(ctx, runs[:])
	for _, run := range runs {
		if run.Err != nil {
			err = run.Err
			break
		}
	}
	return runs[0].Result, runs[1].Result, runs[2].Result, err
}

// runOutcome runs sweep pair i under the three schemes and downgrades
// any failure to a flagged outcome.
func (r *Runner) runOutcome(ctx context.Context, i int, p Pair) PairOutcome {
	po := PairOutcome{Pair: p}
	var err error
	po.Proposed, po.HPE, po.RR, err = r.RunComparison(ctx, i, p)
	if err == nil {
		if po.VsHPE, err = metrics.Compare(po.Proposed, po.HPE); err == nil {
			po.VsRR, err = metrics.Compare(po.Proposed, po.RR)
		}
	}
	if err != nil {
		po.Failed = true
		po.Err = err.Error()
	}
	return po
}
