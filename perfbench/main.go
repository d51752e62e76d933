// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints, as its last line, a JSON
// object with the run's correctness and metrics:
//
//	perfbench --workload paperscale|serve-miss --seed N
//	          --seconds S --trace 0|1 --ampserve PATH --workdir DIR
//
// paperscale drives internal/experiments in-process; serve-miss
// drives a real ampserve process over loopback HTTP. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, each measured from outside the program
// (spans around the driver's calls, /proc, and /metrics deltas).
// RATIONALE.md gives each workload's and metric's reason. Run it
// through run.py, which builds it and ampserve first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pairs_per_s", "pairs/s"},
	{"job_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, named after the module
// they time. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"profilegen.profile_s", "s"},
	{"interval.calibrations", "count"},
	{"interval.calibrate_s", "s"},
	{"engine.sim_minstr_per_s", "Minstr/s"},
	{"engine.sampled.commits", "count"},
	{"engine.interval.commits", "count"},
	{"experiments.sweep_s", "s"},
	{"experiments.run_wall_ms", "ms"},
	{"experiments.worker_busy_frac", "fraction"},
	{"server.batch_fill", "fraction"},
	{"server.cache_joined", "count"},
	{"server.cache_near_hits", "count"},
	{"server.profile_shares", "count"},
	{"server.submit_ms_p50", "ms"},
	{"server.submit_ms_p99", "ms"},
	{"server.first_pair_ms_p50", "ms"},
	{"jobqueue.wait_ms", "ms"},
	{"jobqueue.run_ms", "ms"},
	{"server.cpu_ms_per_pair", "ms"},
	{"server.cpu_util", "fraction"},
	{"server.rss_mb_per_kjob", "MiB"},
	{"driver.cpu_s", "s"},
	{"driver.job_p99_ms", "ms"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	// checkErr is the first failed output check (nil: all passed).
	checkErr error
	e2e      map[string]float64
	layer    map[string]float64
}

// env is what every workload needs.
type env struct {
	start    time.Time // process start, the origin of setup_s
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ampserve string
	workdir  string
	tr       *tracer
}

func (e *env) logf(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "paperscale | serve-miss")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 24, "nominal measured seconds; sets the fixed amount of work")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		ampserve = flag.String("ampserve", "", "ampserve binary (serve-miss)")
		workdir  = flag.String("workdir", "", "scratch directory for server state, spans and run records")
	)
	flag.Parse()
	if *seconds < 1 || *workdir == "" || (*trace != 0 && *trace != 1) {
		fail(errors.New("perfbench: need --seconds >= 1, --workdir, and --trace 0 or 1"))
	}
	wd, err := filepath.Abs(*workdir)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		fail(err)
	}
	e := &env{start: start, workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, ampserve: *ampserve, workdir: wd}
	e.tr = newTracer(e.trace, start)
	e.logf("workload %s seed %d seconds %d trace %d; %d CPUs",
		e.workload, e.seed, e.seconds, *trace, runtime.NumCPU())

	var res *result
	switch e.workload {
	case "paperscale":
		res, err = runPaperscale(e)
	case "serve-miss":
		res, err = runServe(e)
	default:
		err = fmt.Errorf("perfbench: unknown workload %q", e.workload)
	}
	if err != nil {
		fail(err)
	}
	if err := e.tr.write(filepath.Join(wd, fmt.Sprintf("spans-%s-seed%d.json", e.workload, e.seed))); err != nil {
		fail(err)
	}
	e.finish(res)
}

// finish prints the result line and exits: 0 when every output check
// passed, 1 (after the line) when one failed.
func (e *env) finish(res *result) {
	defs, vals := endToEnd, res.e2e
	if e.trace {
		defs, vals = perLayer, res.layer
		e.tr.report(e.logf)
		e.reportOverhead(res)
	} else {
		e.saveUntraced(res)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.checkErr == nil, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if res.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: OUTPUT CHECK FAILED:", res.checkErr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if res.checkErr != nil {
		os.Exit(1)
	}
}

// untracedPath holds the last untraced run's end-to-end figures for a
// workload and seed, which a later traced run compares itself with.
func (e *env) untracedPath() string {
	return filepath.Join(e.workdir, fmt.Sprintf("untraced-%s-seed%d-s%d.json", e.workload, e.seed, e.seconds))
}

func (e *env) saveUntraced(res *result) {
	data, err := json.Marshal(res.e2e)
	if err == nil {
		err = os.WriteFile(e.untracedPath(), data, 0o644)
	}
	if err != nil {
		e.logf("not recording untraced figures: %v", err)
	}
}

// reportOverhead compares the traced run's end-to-end figures with the
// last untraced run of the same workload, seed and length.
func (e *env) reportOverhead(res *result) {
	data, err := os.ReadFile(e.untracedPath())
	var base map[string]float64
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		e.logf("tracing overhead: no untraced run of this workload, seed and length to compare with")
		return
	}
	for _, d := range endToEnd {
		if b := base[d.name]; b != 0 {
			e.logf("tracing overhead: %-12s untraced %10.3f traced %10.3f (%+.1f%%)",
				d.name, b, res.e2e[d.name], 100*(res.e2e[d.name]-b)/b)
		}
	}
	if e.workload == "paperscale" {
		// Traced: profile + explicit calibration + sweep. Untraced: the
		// same work as setup + sweep with lazy calibration.
		traced := res.layer["profilegen.profile_s"] + res.layer["interval.calibrate_s"] + res.layer["experiments.sweep_s"]
		untraced := base["setup_s"] + float64(res.attempted)/base["pairs_per_s"]
		e.logf("split: profile %.2fs + calibrate %.2fs + sweep %.2fs = %.2fs against untraced setup+sweep %.2fs; remainder %.2fs",
			res.layer["profilegen.profile_s"], res.layer["interval.calibrate_s"], res.layer["experiments.sweep_s"],
			traced, untraced, untraced-traced)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
