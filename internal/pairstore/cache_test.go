package pairstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ampsched/internal/telemetry"
)

func mustCache(tb testing.TB, cfg CacheConfig) *Cache {
	tb.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestConcurrentSaveNeverPromotesTornWrite forces the interleaving two
// overlapping Saves could hit, since both write a key through the same
// tmp file: the first Save writes the whole record, the second tears
// the tmp file (the way fault.ServicePlan.WriteFile does), and the
// first then renames the torn file into place and marks the key clean.
// Saves run one at a time, so the second never writes while the first
// is between its write and its rename.
func TestConcurrentSaveNeverPromotesTornWrite(t *testing.T) {
	dir := t.TempDir()
	record := []byte(`{"index":0,"pair":"gcc+swim"}`)
	var (
		calls    atomic.Int32
		wrote    = make(chan struct{}) // the first Save's write is done
		torn     = make(chan struct{}) // a second write tore the tmp file
		promoted = make(chan struct{}) // the first Save has returned
	)
	write := func(name string, data []byte, perm os.FileMode) error {
		switch calls.Add(1) {
		case 1:
			if err := os.WriteFile(name, data, perm); err != nil {
				return err
			}
			close(wrote)
			// An overlapping Save gets this long to write the same tmp file.
			select {
			case <-torn:
			case <-time.After(250 * time.Millisecond):
			}
			return nil
		case 2:
			err := os.WriteFile(name, data[:5], perm)
			close(torn)
			<-promoted
			if err != nil {
				return err
			}
			return errors.New("injected torn write")
		default:
			return os.WriteFile(name, data, perm)
		}
	}
	c := mustCache(t, CacheConfig{Dir: dir, WriteFile: write, Validate: json.Valid})
	c.Put("k", record)

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- c.Save() }()
	<-wrote
	go func() { second <- c.Save() }()
	if err := <-first; err != nil {
		t.Fatalf("first Save: %v", err)
	}
	close(promoted)
	<-second // may report the torn write; the key must still end up whole
	if err := c.Save(); err != nil {
		t.Fatalf("final Save: %v", err)
	}

	tel := telemetry.New()
	reload := mustCache(t, CacheConfig{Dir: dir, Validate: json.Valid, Telemetry: tel})
	if err := reload.Load(); err != nil {
		t.Fatal(err)
	}
	if n := tel.Counter("server.cache_corrupt").Value(); n != 0 {
		t.Fatalf("reload quarantined %d entries: a torn write was promoted and marked clean", n)
	}
	if got, ok := reload.Peek("k"); !ok || !bytes.Equal(got, record) {
		t.Fatalf("reloaded record = %q, %v; want %q", got, ok, record)
	}
}

// TestPanickingComputeEndsItsFlight: a compute that panics still ends
// its flight. Its joiner gets an error instead of waiting for good, and
// the next caller for the key computes afresh.
func TestPanickingComputeEndsItsFlight(t *testing.T) {
	tel := telemetry.New()
	c := mustCache(t, CacheConfig{Telemetry: tel})
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	joined := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, err := c.Do(ctx, "k", func() ([]byte, error) {
			return nil, errors.New("the joiner led a flight of its own")
		})
		joined <- err
	}()
	for tel.Counter("server.cache_joined").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-leaderDone; r != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", r)
	}
	if err := <-joined; !errors.Is(err, errComputePanicked) {
		t.Fatalf("joiner: err = %v, want errComputePanicked", err)
	}
	data, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || hit || string(data) != "v" {
		t.Fatalf("next Do = %q, hit %v, err %v; want a fresh computation of \"v\"", data, hit, err)
	}
}
