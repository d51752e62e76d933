package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
)

// batchFidelities are the engine fidelities the batch identity tests
// pin: running many runs through one call, on pooled systems, must be
// invisible to results at every one of them.
var batchFidelities = []string{cpu.FidelityDetailed, interval.FidelityInterval, interval.FidelitySampled}

// batchRunners returns two fresh Runners over opt: got runs the
// batches under test, ref is the batch-of-one reference.
func batchRunners(t *testing.T, opt Options) (got, ref *Runner) {
	t.Helper()
	got, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	return got, ref
}

// checkAgainstSolo requires every run of a finished batch to match the
// same run executed alone, on a system built fresh, through ref's
// options and observer.
func checkAgainstSolo(t *testing.T, ref *Runner, runs []PairRun) {
	t.Helper()
	for k, pr := range runs {
		if pr.Err != nil {
			t.Fatalf("run %d (%s): %v", k, pr.Pair.Label(), pr.Err)
		}
		// A derived runner starts with an empty pool.
		solo := ref.Derived(ref.Opt)
		solo.RunObserver = ref.RunObserver
		want, err := solo.RunPairContext(context.Background(), pr.Index, pr.Pair, pr.Factory)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Result != want {
			t.Fatalf("run %d (%s): batched result diverges from its batch of one\n got %+v\nwant %+v",
				k, pr.Pair.Label(), pr.Result, want)
		}
	}
}

// TestRunPairsBatchMatchesPairAtATime is the batch identity contract:
// every run of a batch of N — run one after another, with pooled
// threads and systems reused across runs — is bit-identical to the
// same run alone (RunPairContext) on a system built fresh.
func TestRunPairsBatchMatchesPairAtATime(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			opt := tinyOptions()
			opt.Fidelity = fid
			got, ref := batchRunners(t, opt)

			pairs := RandomPairs(3, opt.Seed)
			var runs []PairRun
			for i, p := range pairs {
				runs = append(runs,
					PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
					PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
			}
			// Two batches on the same runner so the second reuses the
			// pooled systems reset in place by the first.
			for round := 0; round < 2; round++ {
				got.RunPairsBatch(context.Background(), runs)
				checkAgainstSolo(t, ref, runs)
			}
		})
	}
}

// TestRunPairsBatchEventAndTraceIdentity extends the identity contract
// from results to the full instrumentation surface: at every fidelity,
// each run of a batch of N publishes exactly the event stream — and
// exactly the canonical trace bytes — that the same run publishes in a
// batch of one. Recorders are installed through Runner.RunObserver,
// called once per run in submission order.
func TestRunPairsBatchEventAndTraceIdentity(t *testing.T) {
	for _, fid := range batchFidelities {
		fid := fid
		t.Run(fid, func(t *testing.T) {
			opt := tinyOptions()
			opt.Fidelity = fid
			got, ref := batchRunners(t, opt)

			record := func(into *[]*amp.EventRecorder) func(int, Pair) amp.Observer {
				return func(int, Pair) amp.Observer {
					rec := &amp.EventRecorder{}
					*into = append(*into, rec)
					return rec
				}
			}
			var gotRecs, refRecs []*amp.EventRecorder
			got.RunObserver = record(&gotRecs)
			ref.RunObserver = record(&refRecs)

			pairs := RandomPairs(2, opt.Seed)
			var runs []PairRun
			for i, p := range pairs {
				runs = append(runs,
					PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
					PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
			}
			got.RunPairsBatch(context.Background(), runs)
			if len(gotRecs) != len(runs) {
				t.Fatalf("batch of %d created %d recorders", len(runs), len(gotRecs))
			}
			checkAgainstSolo(t, ref, runs)
			if len(refRecs) != len(runs) {
				t.Fatalf("batches of one created %d recorders for %d runs", len(refRecs), len(runs))
			}
			for k, pr := range runs {
				ge, re := gotRecs[k].Events(), refRecs[k].Events()
				if len(ge) == 0 {
					t.Fatalf("run %d (%s): no events recorded; identity check is vacuous", k, pr.Pair.Label())
				}
				if !reflect.DeepEqual(ge, re) {
					t.Fatalf("run %d (%s): event streams diverge\nbatch of N: %d events %+v\nbatch of 1: %d events %+v",
						k, pr.Pair.Label(), len(ge), ge, len(re), re)
				}
				if !bytes.Equal(gotRecs[k].TraceBytes(), refRecs[k].TraceBytes()) {
					t.Fatalf("run %d (%s): trace bytes diverge", k, pr.Pair.Label())
				}
			}
		})
	}
}

// TestBatchedSweepMatchesPairAtATime pins the sweep-level contract:
// the parallel sweep, whose workers share pooled systems across pairs,
// produces byte-identical outcomes to running each pair alone in
// order.
func TestBatchedSweepMatchesPairAtATime(t *testing.T) {
	opt := tinyOptions()
	opt.Fidelity = interval.FidelityInterval
	opt.Pairs = 5
	opt.Parallelism = 2

	ref, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Share the profiling artifacts so the comparison only exercises
	// the sweep paths.
	got := ref.Derived(opt)

	pairs := RandomPairs(opt.Pairs, opt.Seed)
	want := make([]PairOutcome, len(pairs))
	for i, p := range pairs {
		want[i] = ref.runOutcome(context.Background(), i, p)
	}
	have, err := got.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, have.Outcomes) {
		t.Fatalf("parallel sweep diverges from pairs run alone")
	}
}

// TestRunPairsBatchFaultPlansPerRun checks that fault-injected runs
// passed in one batch are each armed with their own plan, and each
// equals its batch-of-one run.
func TestRunPairsBatchFaultPlansPerRun(t *testing.T) {
	opt := tinyOptions()
	opt.Fidelity = interval.FidelityInterval
	opt.FaultRate = 0.2
	opt.FaultSeed = 9
	got, ref := batchRunners(t, opt)
	tel := telemetry.New()
	got.Telemetry = tel

	pairs := RandomPairs(3, opt.Seed)
	var runs []PairRun
	for i, p := range pairs {
		runs = append(runs,
			PairRun{Index: i, Pair: p, Factory: got.ProposedFactory()},
			PairRun{Index: i, Pair: p, Factory: got.RRFactory(1)})
	}
	got.RunPairsBatch(context.Background(), runs)
	checkAgainstSolo(t, ref, runs)
	var injected uint64
	for _, name := range []string{
		"fault.samples_dropped", "fault.samples_stale",
		"fault.samples_noised", "fault.swaps_failed", "fault.swaps_delayed",
	} {
		injected += tel.Registry().Counter(name).Value()
	}
	if injected == 0 {
		t.Fatal("no faults injected; the per-run plans are untested")
	}
}

// viewSched records the system each run hands its scheduler and, when
// boom is set, panics on its first decision; otherwise it never moves.
type viewSched struct {
	views *[]amp.View
	boom  bool
}

func (s viewSched) Name() string     { return "view" }
func (s viewSched) Reset(v amp.View) { *s.views = append(*s.views, v) }
func (s viewSched) Tick(amp.View) []amp.Move {
	if s.boom {
		panic("scheduler bug")
	}
	return nil
}

// TestRunPairsBatchPanicIsolation: a scheduler that panics mid-batch
// fails only its own run. Its neighbours finish with their batch-of-one
// results, and a later batch on the same Runner is still identical and
// never hands out the panicked system again.
func TestRunPairsBatchPanicIsolation(t *testing.T) {
	opt := tinyOptions()
	opt.Fidelity = interval.FidelityInterval
	got, ref := batchRunners(t, opt)

	var views []amp.View
	viewing := func(boom bool) SchedFactory {
		return func(...sched.Option) amp.MoveScheduler { return viewSched{views: &views, boom: boom} }
	}
	pairs := RandomPairs(3, opt.Seed)
	runs := []PairRun{
		{Index: 0, Pair: pairs[0], Factory: got.ProposedFactory()},
		{Index: 1, Pair: pairs[1], Factory: viewing(true)},
		{Index: 2, Pair: pairs[2], Factory: got.RRFactory(1)},
	}
	got.RunPairsBatch(context.Background(), runs)
	if runs[1].Err == nil || !strings.Contains(runs[1].Err.Error(), "panicked") {
		t.Fatalf("panicking run: err = %v, want a panicked error", runs[1].Err)
	}
	checkAgainstSolo(t, ref, []PairRun{runs[0], runs[2]})
	panicked := views[0]

	runs[1].Factory = viewing(false)
	got.RunPairsBatch(context.Background(), runs)
	if views[1] == panicked {
		t.Fatal("the panicked system re-entered the pool")
	}
	checkAgainstSolo(t, ref, runs)
}

// TestRunPairsBatchEmpty covers the trivial edge.
func TestRunPairsBatchEmpty(t *testing.T) {
	r, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	r.RunPairsBatch(context.Background(), nil)
}
