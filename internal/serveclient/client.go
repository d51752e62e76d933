// Package serveclient is the Go client of ampserve's HTTP API and the
// launcher of its binary. The proof harnesses (cmd/ampchaos,
// cmd/ampfleet) and the load generator (cmd/amploadgen) reach the
// service only through it, so the wire format is known by
// internal/server and this package alone: requests and replies are
// the server's own server.JobSpec, server.JobStatus and
// telemetry.Metric.
//
// Harness code polls on wall-clock time, like the commands it serves,
// so the package sits outside ampvet's determinism scope.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

const (
	// pollInterval is the pause between status reads in Wait.
	pollInterval = 25 * time.Millisecond
	// minBackoff is the wait before resubmitting a refused job when
	// the reply's Retry-After hint is missing, unparsable or shorter.
	minBackoff = 50 * time.Millisecond
	// maxBackoff caps the Retry-After hint, so a long breaker
	// cooldown (-breakercooldown) cannot stall the caller.
	maxBackoff = 5 * time.Second
)

// ErrBackpressure marks a submission the server still refused (429 or
// 503) when the caller's context ended.
var ErrBackpressure = errors.New("submit still refused at the deadline (backpressure)")

// Pushback counts the overload refusals Submit retried.
type Pushback struct {
	Shed    int64         // 429: load shed or queue full
	Refused int64         // 503: circuit breaker open or draining
	Waited  time.Duration // backoff honored before resubmitting
}

// Client talks to one ampserve node. It is safe for concurrent use.
type Client struct {
	base                 string
	shed, refused, waitN atomic.Int64
}

// New returns a client of the node at base ("http://host:port").
func New(base string) *Client { return &Client{base: base} }

// Pushback returns the refusals Submit has retried so far.
func (c *Client) Pushback() Pushback {
	return Pushback{Shed: c.shed.Load(), Refused: c.refused.Load(), Waited: time.Duration(c.waitN.Load())}
}

// retryDelay is the wait before resubmitting after a refusal carrying
// the Retry-After value hint (whole seconds): the hint clamped to
// [minBackoff, maxBackoff], or minBackoff when it does not parse.
func retryDelay(hint string) time.Duration {
	secs, err := strconv.Atoi(hint)
	if err != nil {
		return minBackoff
	}
	return min(max(time.Duration(secs)*time.Second, minBackoff), maxBackoff)
}

// Submit posts one job and returns its acknowledgment. A 429 or 503
// is backpressure, not failure: Submit waits retryDelay of the reply's
// hint and posts again, never past ctx's end, where it returns an
// error wrapping ErrBackpressure. Any other refusal is an error.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return st, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, data, err := do(req)
		if err != nil {
			return st, fmt.Errorf("submitting job: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			if err := json.Unmarshal(data, &st); err != nil {
				return st, fmt.Errorf("decoding submit reply: %w", err)
			}
			return st, nil
		case http.StatusTooManyRequests:
			c.shed.Add(1)
		case http.StatusServiceUnavailable:
			c.refused.Add(1)
		default:
			return st, fmt.Errorf("submitting job: %w", statusError(resp, data))
		}
		t0 := time.Now()
		err = sleep(ctx, retryDelay(resp.Header.Get("Retry-After")))
		c.waitN.Add(int64(time.Since(t0)))
		if err != nil {
			return st, fmt.Errorf("%w: %w", ErrBackpressure, err)
		}
	}
}

// Status reads a job's status, results included.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	if _, err := c.get(ctx, "/v1/jobs/"+id, &st); err != nil {
		return st, fmt.Errorf("status of job %s: %w", id, err)
	}
	return st, nil
}

// Wait reads a job's status every pollInterval until it is terminal.
// A failed read ends the wait with its error; so does the end of ctx,
// reported with the last state seen.
func (c *Client) Wait(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	for {
		next, err := c.Status(ctx, id)
		if err == nil {
			if st = next; st.State == "done" || st.State == "failed" || st.State == "canceled" {
				return st, nil
			}
			err = sleep(ctx, pollInterval)
		}
		if ctx.Err() != nil {
			return st, fmt.Errorf("job %s still %q: %w", id, st.State, ctx.Err())
		}
		if err != nil {
			return st, err
		}
	}
}

// Run submits one job and waits for it to end.
func (c *Client) Run(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		return ack, err
	}
	return c.Wait(ctx, ack.ID)
}

// Result reads one content-addressed pair record's raw bytes.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	data, err := c.get(ctx, "/v1/results/"+key, nil)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", key, err)
	}
	return data, nil
}

// Metrics reads the node's /metrics snapshot, keyed by metric name. A
// counter that was never incremented is absent, so it reads as zero.
func (c *Client) Metrics(ctx context.Context) (map[string]telemetry.Metric, error) {
	var snap struct {
		Metrics []telemetry.Metric `json:"metrics"`
	}
	if _, err := c.get(ctx, "/metrics", &snap); err != nil {
		return nil, fmt.Errorf("metrics of %s: %w", c.base, err)
	}
	out := make(map[string]telemetry.Metric, len(snap.Metrics))
	for _, m := range snap.Metrics {
		out[m.Name] = m
	}
	return out, nil
}

// get reads path's body and decodes it into v unless v is nil; a
// reply other than 200 is an error.
func (c *Client) get(ctx context.Context, path string, v any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, data, err := do(req)
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = statusError(resp, data)
	case v != nil:
		err = json.Unmarshal(data, v)
	}
	return data, err
}

// do sends req and reads the whole reply.
func do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// statusError reports an unexpected reply with the start of its body,
// where the server puts its {"error": ...} message.
func statusError(resp *http.Response, body []byte) error {
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 512)]))
}

// sleep waits d or until ctx ends, returning ctx's error in that case.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
