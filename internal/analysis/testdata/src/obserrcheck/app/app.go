// Package app discards errors from the checked APIs in every way the
// analyzer recognizes.
package app

import (
	"context"
	"net/http"

	"obserrcheck/internal/amp"
	"obserrcheck/internal/cluster"
	"obserrcheck/internal/jobqueue"
	"obserrcheck/internal/pairstore"
	"obserrcheck/internal/server"
	"obserrcheck/internal/telemetry"
	"obserrcheck/internal/wal"
)

// Leak drops every error.
func Leak(tel *telemetry.Telemetry) {
	amp.NewSystem(true)           // want `error from amp\.NewSystem discarded`
	sys, _ := amp.NewSystem(true) // want `error from amp\.NewSystem assigned to blank identifier`
	sys.Run(1000)                 // want `error from System\.Run discarded`
	defer tel.Close()             // want `deferred Telemetry\.Close discards its error`
	go tel.Close()                // want `go Telemetry\.Close discards its error`
}

// LeakService drops errors across the service layer.
func LeakService(ctx context.Context, q *jobqueue.Queue, s *server.Server, c *pairstore.Cache, hs *http.Server) {
	q.Submit(nil, nil)         // want `error from Queue\.Submit discarded`
	q.Drain(ctx)               // want `error from Queue\.Drain discarded`
	s.Submit(server.JobSpec{}) // want `error from Server\.Submit discarded`
	defer s.Drain(ctx)         // want `deferred Server\.Drain discards its error`
	c.Save()                   // want `error from Cache\.Save discarded`
	c.Load()                   // want `error from Cache\.Load discarded`
	go hs.Shutdown(ctx)        // want `go Server\.Shutdown discards its error`
}

// LeakDurability drops errors across the crash-safety layer.
func LeakDurability(l *wal.Log, s *server.Server) {
	l.Append(wal.Record{}) // want `error from Log\.Append discarded`
	l.Sync()               // want `error from Log\.Sync discarded`
	defer l.Close()        // want `deferred Log\.Close discards its error`
	s.Recover()            // want `error from Server\.Recover discarded`
}

// HandledDurability checks every durability error: nothing to flag.
func HandledDurability(l *wal.Log, s *server.Server) error {
	if err := l.Append(wal.Record{}); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	if _, err := s.Recover(); err != nil {
		return err
	}
	return l.Close()
}

// HandledService checks every service-layer error: nothing to flag.
func HandledService(ctx context.Context, q *jobqueue.Queue, c *pairstore.Cache, hs *http.Server) error {
	if err := q.Submit([]jobqueue.BatchTask{{}}, make([]*jobqueue.Job, 1)); err != nil {
		return err
	}
	if err := q.Drain(ctx); err != nil {
		return err
	}
	if err := c.Save(); err != nil {
		return err
	}
	return hs.Shutdown(ctx)
}

// LeakFleet drops errors across the fleet layer.
func LeakFleet(ctx context.Context, n *cluster.Node) {
	cluster.New(cluster.Config{})         // want `error from cluster\.New discarded`
	m, _ := cluster.New(cluster.Config{}) // want `error from cluster\.New assigned to blank identifier`
	_ = m
	n.Start(ctx)    // want `error from Node\.Start discarded`
	defer n.Close() // want `deferred Node\.Close discards its error`
}

// HandledFleet checks every fleet-layer error: nothing to flag.
func HandledFleet(ctx context.Context) error {
	n, err := cluster.New(cluster.Config{})
	if err != nil {
		return err
	}
	if err := n.Start(ctx); err != nil {
		return err
	}
	return n.Close()
}

// Handled checks every error: nothing to flag.
func Handled(tel *telemetry.Telemetry) error {
	sys, err := amp.NewSystem(true)
	if err != nil {
		return err
	}
	if _, err := sys.Run(1000); err != nil {
		return err
	}
	return tel.Close()
}

// Allowed documents an audited discard.
func Allowed(tel *telemetry.Telemetry) {
	_ = tel.Close() //ampvet:allow obserrcheck fixture demonstrates an audited discard
}
