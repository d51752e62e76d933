// Package cluster is a determinism fixture: its import path ends in
// internal/cluster, so the fleet layer's routing is held to the same
// no-wall-clock rules as the simulation core — placement must be a
// pure function of membership and spec bytes.
package cluster

import "time"

// LeaseLeft reads the wall clock without an audited allow.
func LeaseLeft(expires time.Time) time.Duration {
	return time.Until(expires) // want `time\.Until reads the wall clock`
}

// Heartbeat mints a ticker without an audited allow.
func Heartbeat() *time.Ticker {
	return time.NewTicker(time.Second) // want `time\.NewTicker reads the wall clock`
}

// Allowed documents the audited exception form the real node uses for
// its heartbeat cadence.
func Allowed() time.Time {
	return time.Now() //ampvet:allow determinism peer liveness is inherently wall-clock
}

// VoidAll observes map iteration order over live waiters.
func VoidAll(claims map[string]chan struct{}) {
	for key, done := range claims { // want `map iteration order is randomized`
		_ = key
		close(done)
	}
}

// VoidAllAudited is the audited form of a fan-out whose order is
// unobservable.
func VoidAllAudited(claims map[string]chan struct{}) {
	for _, done := range claims { //ampvet:allow determinism fan-out order is unobservable
		close(done)
	}
}
