// Package server is a determinism fixture: its import path ends in
// internal/server, so the service layer's job queue is held to the
// same no-wall-clock rules as the simulation core.
package server

import "time"

// Wait reads the wall clock without an audited allow.
func Wait() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

// Allowed documents the audited exception the real queue uses for its
// wait and run latency histograms.
func Allowed() time.Time {
	return time.Now() //ampvet:allow determinism queue wait-latency measurement is inherently wall-clock
}

// Fanout observes map iteration order.
func Fanout(jobs map[int]func()) int {
	n := 0
	for id, f := range jobs { // want `map iteration order is randomized`
		f()
		n += id
	}
	return n
}
