package serveclient

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/jobqueue"
	"ampsched/internal/pairstore"
	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

func TestRetryDelay(t *testing.T) {
	for _, tc := range []struct {
		hint string
		want time.Duration
	}{
		{"", minBackoff},       // missing
		{"0", minBackoff},      // below the floor
		{"1", time.Second},     // honored as sent
		{"5", 5 * time.Second}, // at the cap
		{"6", maxBackoff},      // clamped, not ignored
		{"x", minBackoff},      // unparsable
	} {
		if got := retryDelay(tc.hint); got != tc.want {
			t.Errorf("retryDelay(%q) = %v, want %v", tc.hint, got, tc.want)
		}
	}
}

// newService serves an in-process server at interval fidelity with
// the harnesses' small simulation limits; mutate, when set, adjusts
// its configuration.
func newService(t *testing.T, mutate func(*server.Config)) (*server.Server, *telemetry.Telemetry, *Client) {
	t.Helper()
	opt := experiments.DefaultOptions()
	opt.InstrLimit = 40_000
	opt.ContextSwitch = 10_000
	opt.ProfileInstrLimit = 30_000
	opt.Fidelity = "interval"
	tel := telemetry.New()
	cfg := server.Config{
		BaseOptions: opt,
		Queue:       jobqueue.Config{Workers: 2},
		Cache:       pairstore.CacheConfig{ByteBudget: 1 << 20},
		Telemetry:   tel,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
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
	return srv, tel, New(ts.URL)
}

// TestRunResultsMatchCache: jobs submitted, waited for and read back
// through one client from several goroutines yield exactly the bytes
// the server cached, and the metrics read sees the completions.
func TestRunResultsMatchCache(t *testing.T) {
	srv, _, c := newService(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, seed := range []uint64{3, 3, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Run(ctx, server.JobSpec{Pairs: 2, Seed: seed})
			if err != nil || st.State != "done" || len(st.Results) != 2 {
				t.Errorf("seed %d: job ended %q with %d results (%v), want done with 2", seed, st.State, len(st.Results), err)
				return
			}
			for _, r := range st.Results {
				got, err := c.Result(ctx, r.Key)
				want, ok := srv.Cache().Peek(r.Key)
				if err != nil || !ok || !bytes.Equal(got, want) {
					t.Errorf("result %s: client read %d bytes (%v), cache holds %d (cached %v)", r.Key, len(got), err, len(want), ok)
				}
			}
		}()
	}
	wg.Wait()
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The server counts a completion just after publishing the done
	// state, so only the earliest of the three is sure to be counted.
	if got := m["server.jobs_completed"].Value; got < 1 {
		t.Fatalf("server.jobs_completed = %v, want >= 1", got)
	}
}

// TestSubmitShedUntilDeadline: with the only worker parked and the one
// pending slot (MaxPending 1) taken, the depth bound refuses a job on
// every try. Submit honors the 1 s hint, counts every 429 the server
// sent, and gives up with ErrBackpressure at its deadline, before the
// next hinted wait would end.
func TestSubmitShedUntilDeadline(t *testing.T) {
	srv, tel, c := newService(t, func(cfg *server.Config) {
		cfg.Queue = jobqueue.Config{Workers: 1}
		cfg.MaxPending = 1
	})
	// The first job parks the worker in the fleet lookup of its pair
	// until the server closes; the second then waits in the only slot.
	parked := make(chan struct{})
	var once sync.Once
	srv.SetCluster(func(ctx context.Context, key string) ([]byte, bool) {
		once.Do(func() { close(parked) })
		<-ctx.Done()
		return nil, false
	}, nil)
	setup, cancelSetup := context.WithTimeout(context.Background(), time.Minute)
	defer cancelSetup()
	if _, err := c.Submit(setup, server.JobSpec{Pairs: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	<-parked
	if _, err := c.Submit(setup, server.JobSpec{Pairs: 1, Seed: 4}); err != nil {
		t.Fatal(err)
	}

	const deadline = 1500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	_, err := c.Submit(ctx, server.JobSpec{Pairs: 2, Seed: 3})
	elapsed := time.Since(t0)
	if !errors.Is(err, ErrBackpressure) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit = %v, want ErrBackpressure at the deadline", err)
	}
	if elapsed > deadline+500*time.Millisecond {
		t.Fatalf("Submit returned after %v, past its %v deadline", elapsed, deadline)
	}
	pb := c.Pushback()
	if rejected := tel.Counter("server.jobs_rejected").Value(); pb.Shed < 1 || uint64(pb.Shed) != rejected {
		t.Fatalf("client counted %d 429s, server shed %d jobs; want equal and >= 1", pb.Shed, rejected)
	}
	if pb.Refused != 0 || pb.Waited < time.Second {
		t.Fatalf("pushback %+v: want no 503 and at least one honored 1 s hint", pb)
	}
}

// TestUnknownJobFailsAtOnce: a status read for an id the server never
// issued is an error, and Wait returns it instead of polling on.
func TestUnknownJobFailsAtOnce(t *testing.T) {
	_, _, c := newService(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Status(ctx, "no-such-job"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("Status(unknown) = %v, want an HTTP 404 error", err)
	}
	t0 := time.Now()
	if _, err := c.Wait(ctx, "no-such-job"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("Wait(unknown) = %v, want an HTTP 404 error", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("Wait(unknown) took %v, want an immediate failure", elapsed)
	}
}
