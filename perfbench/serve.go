package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// serveProfileLimit shortens the server's §V profiling pass; the
	// default-budget profile is measured by paperscale.
	serveProfileLimit = 250_000
	// missJobsPerSecond sizes the measured phase from --seconds. The
	// job count is fixed per length, never per elapsed time: the server
	// keeps every job's record, so its memory grows with the job count,
	// and a faster run must not do more jobs. 55 jobs per second puts
	// 1320 jobs in a 24-second run, within the 1332-slot capacity.
	missJobsPerSecond = 55
	// minMeasuredJobs keeps ten samples beyond the p99.
	minMeasuredJobs = minTailSamples
)

// ampserveProc is one ampserve process under test.
type ampserveProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startAmpserve boots ampserve on a free loopback port, with its log
// and address file under dir, and waits until it listens. The server
// runs without -journaldir and -cachedir: on the disk that holds the
// checkout, fsync latency drifted twofold within minutes, which moved
// serve-miss throughput 1.8x between runs of the same code, past the
// widest bound the benchmark uses (0.25).
func startAmpserve(bin, dir string) (*ampserveProc, error) {
	if bin == "" {
		return nil, errors.New("perfbench: serve-miss needs --ampserve")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "ampserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-fidelity", "interval",
		"-profilelimit", strconv.Itoa(serveProfileLimit))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive a driver that dies abruptly.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("perfbench: starting ampserve: %w", err)
	}
	p := &ampserveProc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			p.base = "http://" + strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("perfbench: ampserve exited before listening (%v); see %s", err, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("perfbench: ampserve did not listen within 60s")
		}
	}
}

func (p *ampserveProc) pid() int { return p.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it; a server that
// does not exit cleanly within a minute is killed and reported.
func (p *ampserveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("perfbench: signaling ampserve: %w", err)
	}
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil {
			return fmt.Errorf("perfbench: ampserve drain: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("perfbench: ampserve did not drain within 60s")
	}
}

// kill ends the process and waits for it (idempotent).
func (p *ampserveProc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	err := <-p.done
	p.done <- err
}

// metrics scrapes /metrics into name -> value (counters) and
// count/sum (histograms).
func (p *ampserveProc) metrics(c *http.Client) (map[string]counterVal, error) {
	resp, err := c.Get(p.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("perfbench: scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("perfbench: decoding metrics: %w", err)
	}
	out := map[string]counterVal{}
	for _, m := range body.Metrics {
		out[m.Name] = counterVal{value: m.Value, count: m.Count, sum: m.Sum}
	}
	return out, nil
}

// newClient is one closed-loop client: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// jobOut is one job as the client saw it.
type jobOut struct {
	start                     time.Time
	submitted, first, settled time.Time
	state                     string
	lines                     [][]byte // pair records, as streamed
	err                       error
}

// runJob submits one explicit-pair job and follows its stream to the
// terminal line, the way sweep scripts use the service.
func runJob(c *http.Client, base string, pairs jobPairs) jobOut {
	o := jobOut{start: time.Now()}
	body, err := json.Marshal(map[string]any{"pair_names": pairs})
	if err != nil {
		o.err = err
		return o
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = fmt.Errorf("perfbench: submit: %w", err)
		return o
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("perfbench: submit: status %d: %s %v", resp.StatusCode, bytes.TrimSpace(reply), err)
		return o
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &st); err != nil || st.ID == "" {
		o.err = fmt.Errorf("perfbench: submit reply %q: %v", reply, err)
		return o
	}
	o.submitted = time.Now()
	resp, err = c.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		o.err = fmt.Errorf("perfbench: stream: %w", err)
		return o
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 && o.first.IsZero() {
			o.first = time.Now()
		}
		if bytes.HasPrefix(line, []byte(`{"done":`)) {
			o.settled = time.Now()
			var fin struct {
				State string `json:"state"`
			}
			if jerr := json.Unmarshal(line, &fin); jerr != nil {
				o.err = fmt.Errorf("perfbench: terminal line %q: %w", line, jerr)
			}
			o.state = fin.State
			_, _ = io.Copy(io.Discard, r) // drain so the connection is reused
			return o
		}
		if len(bytes.TrimSpace(line)) > 0 {
			o.lines = append(o.lines, line)
		}
		if err != nil {
			o.err = fmt.Errorf("perfbench: stream of job %s ended without a terminal line: %v", st.ID, err)
			return o
		}
	}
}

// runPhase runs jobs through the closed loop: each client submits its
// next job only after its previous one settled.
func runPhase(e *env, clients []*http.Client, base string, jobs []jobPairs, name string, parent int) []jobOut {
	phase := e.tr.begin(name, parent, -1)
	defer e.tr.end(phase)
	outs := make([]jobOut, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				outs[k] = runJob(c, base, jobs[k])
				if e.tr.on && outs[k].err == nil {
					o := outs[k]
					js := e.tr.add("job", phase, k, o.start, o.settled)
					e.tr.add("submit", js, k, o.start, o.submitted)
					e.tr.add("stream", js, k, o.submitted, o.settled)
				}
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// collect checks a phase's jobs and adds their records to all (every
// phase) and phase (this one). It returns the number of failed jobs
// and the first problem.
func collect(jobs []jobPairs, outs []jobOut, all, phase recordSet) (failed int, first error) {
	note := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for k, o := range outs {
		if o.err != nil {
			note(o.err)
			continue
		}
		recs := make([]map[string]any, len(o.lines))
		canon := make([][]byte, len(o.lines))
		var err error
		for i, l := range o.lines {
			if canon[i], recs[i], err = canonicalRecord(l); err != nil {
				break
			}
		}
		if err == nil {
			err = checkJobRecords(jobs[k], o.state, recs)
		}
		for i := 0; err == nil && i < len(recs); i++ {
			key := recs[i]["key"].(string)
			if err = all.add(key, canon[i]); err == nil && phase != nil {
				err = phase.add(key, canon[i])
			}
		}
		if err != nil {
			note(fmt.Errorf("job %d: %w", k, err))
		}
	}
	return failed, first
}

// snapshot is the server's state at a phase boundary.
type snapshot struct {
	at          time.Time
	metrics     map[string]counterVal
	cpuS, rssMB float64
	driverCPU   float64
	stealS      float64 // the host's steal time, summed over CPUs
}

func takeSnapshot(p *ampserveProc, c *http.Client) (snapshot, error) {
	s := snapshot{at: time.Now(), driverCPU: selfCPUSeconds(), stealS: hostStealSeconds()}
	var err error
	if s.metrics, err = p.metrics(c); err != nil {
		return s, err
	}
	if s.cpuS, err = procCPUSeconds(p.pid()); err != nil {
		return s, err
	}
	s.rssMB, err = procStatusMB(p.pid(), "VmRSS")
	return s, err
}

// runServe runs serve-miss against a fresh ampserve: fixed warm-up
// jobs as set-up, then jobs of never-seen pairs, every pair a miss.
func runServe(e *env) (*result, error) {
	nJobs := max(minMeasuredJobs, int(math.Round(float64(e.seconds)*missJobsPerSecond)))
	plan := newSlotPlan(e.seed)
	warm, err := plan.slots(0, warmJobs)
	if err != nil {
		return nil, err
	}
	measured, err := plan.slots(warmJobs, nJobs)
	if err != nil {
		return nil, err
	}

	// The load generator shares the CPUs with the server under test:
	// one P is enough for two clients blocked on the network, and a
	// lazier GC keeps the retained records from stealing server time.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	root := e.tr.begin("run", -1, -1)
	defer e.tr.end(root)
	setup := e.tr.begin("setup", root, -1)
	boot := e.tr.begin("boot", setup, -1)
	dir := filepath.Join(e.workdir, fmt.Sprintf("%s-%d", e.workload, os.Getpid()))
	srv, err := startAmpserve(e.ampserve, dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer srv.kill() // a no-op once stop has reaped the process
	e.tr.end(boot)
	clients := []*http.Client{newClient(), newClient()}
	if runtime.NumCPU() != len(clients) {
		e.logf("note: %d CPUs, driving %d clients", runtime.NumCPU(), len(clients))
	}
	scrape := newClient()

	all, warmSet := recordSet{}, recordSet{}
	failed, checkErr := collect(warm, runPhase(e, clients, srv.base, warm, "warmup", setup), all, warmSet)
	if checkErr == nil {
		checkErr = checkDigest("warm-up", warmSet.digest(), references.Warmup)
	}
	e.tr.end(setup)
	if failed > 0 {
		_ = srv.stop()
		return nil, fmt.Errorf("perfbench: set-up jobs failed: %w", checkErr)
	}

	before, err := takeSnapshot(srv, scrape)
	if err != nil {
		return nil, err
	}
	setupS := before.at.Sub(e.start).Seconds()
	outs := runPhase(e, clients, srv.base, measured, "measured", root)
	after, err := takeSnapshot(srv, scrape)
	if err != nil {
		return nil, err
	}
	peak, err := procStatusMB(srv.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	teardown := e.tr.begin("teardown", root, -1)
	stopErr := srv.stop()
	e.tr.end(teardown)

	measuredSet := recordSet{}
	mFailed, mErr := collect(measured, outs, all, measuredSet)
	if checkErr == nil {
		checkErr = mErr
	}
	if checkErr == nil {
		checkErr = stopErr
	}
	delta := map[string]float64{}
	for name, v := range after.metrics {
		delta[name] = v.value - before.metrics[name].value
	}
	pairs := float64(pairsPerJob * len(measured))
	rules := []counterRule{{"interval.calibrations", 0}, {"server.cache_hits", 0}, {"server.cache_misses", pairs}}
	if checkErr == nil {
		checkErr = checkCounters(delta, rules)
	}
	digest := measuredSet.digest()
	if ref, ok := references.Runs[refKey(e)]; ok {
		if checkErr == nil {
			checkErr = checkDigest("measured records", digest, ref.Digest)
		}
	} else {
		e.logf("no reference records for %s; checking consistency only", refKey(e))
	}

	wall := after.at.Sub(before.at).Seconds()
	lat := jobLatencies(outs)
	// Every measured job that settled counts; a failed job has already
	// failed the run, and too few samples leave the p99 at 0.
	p99, _ := percentile(lat.total, 0.99)
	p90, _ := percentile(lat.total, 0.9)
	e.logf("%s: %d jobs (%g pairs) in %.2fs after %.2fs set-up; host steal %.2f CPU-s; p50 %.2fms p90 %.2fms p99 %.2fms over %d jobs; records digest %s; warm-up digest %s",
		e.workload, len(measured), pairs, wall, setupS, after.stealS-before.stealS, median(lat.total), p90, p99, len(lat.total),
		digest, warmSet.digest())

	res := &result{attempted: len(measured), failed: mFailed, checkErr: checkErr}
	res.e2e = map[string]float64{
		"setup_s":     setupS,
		"pairs_per_s": pairs / wall,
		"job_p50_ms":  median(lat.total),
		"peak_rss_mb": peak,
	}
	res.layer = serveLayers(before, after, delta, lat, len(measured), wall)
	res.layer["driver.job_p99_ms"] = p99
	if e.trace {
		avg, wait, run := mean(lat.total), res.layer["jobqueue.wait_ms"], res.layer["jobqueue.run_ms"]
		// The queue wait starts at enqueue, inside the POST, so the
		// submit round trip overlaps it and is reported beside the
		// split, not as a term of it.
		e.logf("split of the mean job latency %.3fms: queue wait %.3f + run %.3f + outside the queue (HTTP, stream) %.3f; submit round trip %.3f overlaps the wait",
			avg, wait, run, avg-wait-run, mean(lat.submit))
		e.logf("near-hit audit: near hits %g, profile shares %g, joined %g; %d of %d measured records have zero Round Robin swaps"+
			" (the swap-overhead tier needs zero)", delta["server.cache_near_hits"], delta["server.profile_shares"],
			delta["server.cache_joined"], zeroSwapRR(measuredSet), len(measuredSet))
	}
	return res, nil
}

// latencies are the client-side timings of the settled jobs, in ms from
// each job's POST: to the 202 (submit), to the first pair line
// (first), and to the terminal line (total).
type latencies struct{ submit, first, total []float64 }

func jobLatencies(outs []jobOut) latencies {
	var l latencies
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		l.submit = append(l.submit, ms(o.submitted.Sub(o.start)))
		l.first = append(l.first, ms(o.first.Sub(o.start)))
		l.total = append(l.total, ms(o.settled.Sub(o.start)))
	}
	return l
}

// zeroSwapRR counts the records whose Round Robin run executed no swap.
func zeroSwapRR(records recordSet) int {
	n := 0
	for _, b := range records {
		var r struct {
			RR struct {
				Swaps uint64 `json:"swaps"`
			} `json:"rr"`
		}
		if json.Unmarshal(b, &r) == nil && r.RR.Swaps == 0 {
			n++
		}
	}
	return n
}

// serveLayers derives the per-layer metrics of a measured phase of
// jobs lasting wall seconds from the server snapshots around it, the
// registry deltas and the client timings.
func serveLayers(before, after snapshot, delta map[string]float64, lat latencies, jobs int, wall float64) map[string]float64 {
	hist := func(name string) float64 { // Δsum/Δcount, in the histogram's unit
		c := after.metrics[name].count - before.metrics[name].count
		if c == 0 {
			return 0
		}
		return (after.metrics[name].sum - before.metrics[name].sum) / c
	}
	pairs := float64(pairsPerJob * jobs)
	cpus := float64(runtime.NumCPU())
	busy := (after.metrics["experiments.run_wall_us"].sum - before.metrics["experiments.run_wall_us"].sum) / 1e6
	cpuS := after.cpuS - before.cpuS
	s99, _ := percentile(lat.submit, 0.99)
	layer := map[string]float64{
		"interval.calibrations":        delta["interval.calibrations"],
		"engine.interval.commits":      delta["engine.interval.commits"],
		"experiments.run_wall_ms":      hist("experiments.run_wall_us") / 1000,
		"experiments.worker_busy_frac": busy / (cpus * wall),
		"server.cache_joined":          delta["server.cache_joined"],
		"server.cache_near_hits":       delta["server.cache_near_hits"],
		"server.profile_shares":        delta["server.profile_shares"],
		"server.submit_ms_p50":         median(lat.submit),
		"server.submit_ms_p99":         s99,
		"server.first_pair_ms_p50":     median(lat.first),
		"jobqueue.wait_ms":             hist("jobqueue.wait_us") / 1000,
		"jobqueue.run_ms":              hist("jobqueue.run_us") / 1000,
		"server.cpu_ms_per_pair":       1000 * cpuS / pairs,
		"server.cpu_util":              cpuS / (wall * cpus),
		"server.rss_mb_per_kjob":       (after.rssMB - before.rssMB) / (float64(jobs) / 1000),
		"driver.cpu_s":                 after.driverCPU - before.driverCPU,
	}
	if busy > 0 {
		layer["engine.sim_minstr_per_s"] = delta["engine.interval.commits"] / 1e6 / busy
	}
	if b := delta["server.pair_batches"]; b > 0 {
		layer["server.batch_fill"] = delta["server.batched_pairs"] / (pairsPerJob * b)
	}
	return layer
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
