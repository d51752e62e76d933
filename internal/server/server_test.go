package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
)

// testOptions are scaled for test speed: the detailed profiling pass
// is tiny, and pair runs use the interval engine.
func testOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.InstrLimit = 40_000
	o.ContextSwitch = 10_000
	o.ProfileInstrLimit = 30_000
	o.Fidelity = "interval"
	return o
}

type testService struct {
	srv *Server
	ts  *httptest.Server
	tel *telemetry.Telemetry
}

func newTestService(t *testing.T, mutate func(*Config)) *testService {
	t.Helper()
	tel := telemetry.New()
	cfg := Config{
		BaseOptions: testOptions(),
		Workers:     4,
		MaxPending:  16,
		Cache:       pairstore.CacheConfig{ByteBudget: 1 << 20},
		Telemetry:   tel,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return &testService{srv: srv, ts: ts, tel: tel}
}

func (s *testService) postJob(t *testing.T, spec JobSpec) JobStatus {
	t.Helper()
	st, code := s.tryPostJob(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", code)
	}
	return st
}

func (s *testService) tryPostJob(t *testing.T, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func (s *testService) getStatus(t *testing.T, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d, want 200", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (s *testService) waitDone(t *testing.T, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := s.getStatus(t, id)
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func TestSubmitStatusAndResults(t *testing.T) {
	s := newTestService(t, nil)
	st := s.postJob(t, JobSpec{Pairs: 2})
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit response missing id/state: %+v", st)
	}
	final := s.waitDone(t, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %q (err %q), want done", final.State, final.Error)
	}
	if final.Completed != 2 || len(final.Results) != 2 {
		t.Fatalf("completed %d results %d, want 2/2", final.Completed, len(final.Results))
	}
	for _, r := range final.Results {
		if r.Failed {
			t.Fatalf("pair %s degraded: %s", r.Pair, r.Err)
		}
		if r.Proposed.IPCPerWatt[0] <= 0 || r.Proposed.IPCPerWatt[1] <= 0 {
			t.Fatalf("pair %s has non-positive IPC/Watt", r.Pair)
		}
		if r.Key == "" {
			t.Fatalf("pair %s missing cache key", r.Pair)
		}
	}
}

func TestExplicitPairNames(t *testing.T) {
	s := newTestService(t, nil)
	st := s.postJob(t, JobSpec{PairNames: [][2]string{{"gcc", "swim"}}})
	final := s.waitDone(t, st.ID)
	if final.State != "done" || len(final.Results) != 1 {
		t.Fatalf("state %q, %d results", final.State, len(final.Results))
	}
	if final.Results[0].Pair != "gcc+swim" {
		t.Fatalf("pair %q, want gcc+swim", final.Results[0].Pair)
	}
}

func TestUnknownJobAndBenchmark404(t *testing.T) {
	s := newTestService(t, nil)
	resp, err := http.Get(s.ts.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
	if _, code := s.tryPostJob(t, JobSpec{PairNames: [][2]string{{"nope", "swim"}}}); code != http.StatusBadRequest {
		t.Fatalf("unknown benchmark status %d, want 400", code)
	}
	resp, err = http.Get(s.ts.URL + "/v1/results/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result status %d, want 404", resp.StatusCode)
	}
}

func TestStreamDeliversOutcomesAndTerminalLine(t *testing.T) {
	s := newTestService(t, nil)
	st := s.postJob(t, JobSpec{Pairs: 3})
	resp, err := http.Get(s.ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var pairLines int
	var sawDone bool
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool   `json:"done"`
			Pair string `json:"pair"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			sawDone = true
			break
		}
		if probe.Pair == "" {
			t.Fatalf("pair line without pair label: %q", line)
		}
		pairLines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pairLines != 3 || !sawDone {
		t.Fatalf("streamed %d pair lines, done=%v; want 3 and a terminal line", pairLines, sawDone)
	}
}

func TestResultEndpointServesCachedRecord(t *testing.T) {
	s := newTestService(t, nil)
	st := s.postJob(t, JobSpec{Pairs: 1})
	final := s.waitDone(t, st.ID)
	if final.State != "done" {
		t.Fatalf("state %q", final.State)
	}
	key := final.Results[0].Key
	resp, err := http.Get(s.ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d", key, resp.StatusCode)
	}
	var r PairResult
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Pair != final.Results[0].Pair {
		t.Fatalf("cached record pair %q, want %q", r.Pair, final.Results[0].Pair)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		// Big detailed runs: slow enough to cancel mid-flight.
		opt := testOptions()
		opt.InstrLimit = 200_000_000
		opt.Fidelity = "detailed"
		cfg.BaseOptions = opt
	})
	st := s.postJob(t, JobSpec{Pairs: 4})
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	final := s.waitDone(t, st.ID)
	if final.State != "canceled" {
		t.Fatalf("state %q, want canceled", final.State)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		opt := testOptions()
		opt.InstrLimit = 200_000_000
		opt.Fidelity = "detailed"
		cfg.BaseOptions = opt
		cfg.Workers = 1
		cfg.MaxPending = 1
	})
	// One job occupies the worker (eventually), one fills the pending
	// slot; keep submitting until the queue sheds load.
	deadline := time.Now().Add(30 * time.Second)
	var got429 bool
	for !got429 && time.Now().Before(deadline) {
		_, code := s.tryPostJob(t, JobSpec{Pairs: 2})
		switch code {
		case http.StatusTooManyRequests:
			got429 = true
		case http.StatusAccepted:
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if !got429 {
		t.Fatal("queue never returned 429 under overload")
	}
	if rejected := s.tel.Counter("server.jobs_rejected").Value(); rejected == 0 {
		t.Fatal("jobs_rejected counter not incremented")
	}
}

// TestWedgedJobNotRetried: a wedge is a pure function of the job's
// spec, so the server runs a wedged job once and counts it failed.
func TestWedgedJobNotRetried(t *testing.T) {
	s := newTestService(t, func(cfg *Config) {
		cfg.BaseOptions.CycleBudget = 5000
	})
	if st := s.waitDone(t, s.postJob(t, JobSpec{Pairs: 1}).ID); st.State != "failed" {
		t.Fatalf("wedged job ended %q, want failed", st.State)
	}
	if err := s.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{{"server.jobs_completed", 0}, {"server.jobs_failed", 1}} {
		if got := s.tel.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestConcurrentIdenticalJobsSingleflight is the acceptance-criteria
// test: two identical jobs submitted concurrently run each simulation
// once — the second is served from the cache/flight — demonstrated by
// the telemetry cache counters.
func TestConcurrentIdenticalJobsSingleflight(t *testing.T) {
	s := newTestService(t, nil)
	spec := JobSpec{Pairs: 2, Seed: 21}

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := s.postJob(t, spec)
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	finals := make([]JobStatus, 2)
	for i, id := range ids {
		finals[i] = s.waitDone(t, id)
		if finals[i].State != "done" {
			t.Fatalf("job %s state %q (err %q)", id, finals[i].State, finals[i].Error)
		}
	}

	// The simulations ran once: misses count unique pair computations,
	// hits cover the duplicate job's pairs (resident or joined flight).
	misses := s.tel.Counter("server.cache_misses").Value()
	hits := s.tel.Counter("server.cache_hits").Value()
	if misses != 2 {
		t.Fatalf("cache_misses = %d, want 2 (each pair simulated once)", misses)
	}
	if hits != 2 {
		t.Fatalf("cache_hits = %d, want 2 (duplicate job served from cache)", hits)
	}
	totalHits := finals[0].CacheHits + finals[1].CacheHits
	if totalHits != 2 {
		t.Fatalf("job cache hits %d, want 2", totalHits)
	}
	// Identical inputs, identical bytes: the two jobs' results match.
	for i := range finals[0].Results {
		a, b := finals[0].Results[i], finals[1].Results[i]
		a.Cached, b.Cached = false, false
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("pair %d diverged between identical jobs:\n%s\n%s", i, aj, bj)
		}
	}
}

// TestSequentialResubmitServedFromCache covers the warm-cache path:
// a repeat of a finished job does no simulation work at all.
func TestSequentialResubmitServedFromCache(t *testing.T) {
	s := newTestService(t, nil)
	spec := JobSpec{Pairs: 2, Seed: 33}
	first := s.waitDone(t, s.postJob(t, spec).ID)
	if first.State != "done" {
		t.Fatalf("first job %q", first.State)
	}
	missesBefore := s.tel.Counter("server.cache_misses").Value()
	second := s.waitDone(t, s.postJob(t, spec).ID)
	if second.State != "done" {
		t.Fatalf("second job %q", second.State)
	}
	if second.CacheHits != 2 {
		t.Fatalf("resubmit cache hits %d, want 2", second.CacheHits)
	}
	if misses := s.tel.Counter("server.cache_misses").Value(); misses != missesBefore {
		t.Fatalf("resubmit recomputed: misses %d -> %d", missesBefore, misses)
	}
	for _, r := range second.Results {
		if !r.Cached {
			t.Fatalf("pair %s not marked cached", r.Pair)
		}
	}
}

func TestHealthzReadyzAndMetrics(t *testing.T) {
	s := newTestService(t, nil)
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(s.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// /metrics carries the server counters.
	resp, err := http.Get(s.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range snap.Metrics {
		names = append(names, m.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"server.http_requests", "jobqueue.depth"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("/metrics missing %s (have %s)", want, joined)
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Pairs: 2, Seed: 44}

	s1 := newTestService(t, func(cfg *Config) { cfg.Cache.Dir = dir })
	first := s1.waitDone(t, s1.postJob(t, spec).ID)
	if first.State != "done" {
		t.Fatalf("first job %q", first.State)
	}
	if err := s1.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A "restarted" server loads the saved sweeps and serves the same
	// job without simulating.
	s2 := newTestService(t, func(cfg *Config) { cfg.Cache.Dir = dir })
	if err := s2.srv.Cache().Load(); err != nil {
		t.Fatal(err)
	}
	second := s2.waitDone(t, s2.postJob(t, spec).ID)
	if second.State != "done" {
		t.Fatalf("restarted job %q", second.State)
	}
	if second.CacheHits != 2 {
		t.Fatalf("restarted server cache hits %d, want 2", second.CacheHits)
	}
	if misses := s2.tel.Counter("server.cache_misses").Value(); misses != 0 {
		t.Fatalf("restarted server recomputed %d pairs", misses)
	}
}

func TestMaxPairsPerJobRejected(t *testing.T) {
	s := newTestService(t, func(cfg *Config) { cfg.MaxPairsPerJob = 3 })
	if _, code := s.tryPostJob(t, JobSpec{Pairs: 4}); code != http.StatusBadRequest {
		t.Fatalf("oversized job status %d, want 400", code)
	}
}
