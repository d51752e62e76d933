// Package rng provides a small, fast, deterministic pseudo-random
// number generator used throughout the simulator.
//
// Every stochastic component of the simulator (workload synthesis,
// random pair selection, profiling sampling) draws from an explicitly
// seeded *rng.Source so that whole-system runs are bit-reproducible.
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
// 64-bit state advanced by a Weyl constant and finalized with a
// variant of the MurmurHash3 finalizer. It is not cryptographically
// secure; it is statistically strong enough for workload synthesis and
// extremely cheap (three multiplies and shifts per value).
package rng

import "math"

// Source is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Seed resets the generator to the given seed.
func (s *Source) Seed(seed uint64) { s.state = seed }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a value uniformly distributed in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits / 2^53.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a value uniformly distributed in [0, n). It panics
// if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	return s.Uint64() % n
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with the
// given mean (mean >= 1). The returned value is always >= 1. This is
// used for dependency-distance synthesis: a producer "mean" dynamic
// instructions back in program order.
//
// The sample is drawn by inverse transform — n = 1 + floor(ln(U) /
// ln(1-p)) with p = 1/mean — which costs one uniform draw and one log
// instead of O(mean) Bernoulli trials. A mean <= 1 draws nothing.
func (s *Source) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	return s.GeometricLog(math.Log(1 - 1/mean))
}

// GeometricLog is Geometric(mean) for a mean > 1 whose logarithm
// logq = math.Log(1-1/mean) the caller computed once: it returns the
// same value and draws the same uniform, and it saves the second log
// of every call when the mean is fixed over many draws.
func (s *Source) GeometricLog(logq float64) int {
	u := s.Float64()
	if u <= 0 {
		u = 1e-18 // Float64 is in [0,1); guard the log anyway
	}
	n := 1 + int(math.Log(u)/logq)
	if n < 1 {
		n = 1
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}
