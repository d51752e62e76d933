// Package fault injects deterministic, seeded faults into the AMP
// scheduling stack: noisy/dropped/stale hardware-monitor samples,
// failed or delayed swap reconfigurations, and corrupted trace bytes.
//
// Real asymmetric multicores do not have the perfect monitors and
// always-successful reconfigurations the paper assumes — counters are
// sampled asynchronously, reconfiguration requests race with power
// management, and trace capture hardware drops or mangles records. A
// Plan models those failure modes as explicit, reproducible
// perturbations so the schedulers' degradation can be measured rather
// than guessed at.
//
// Everything is driven by SplitMix64 streams derived from a single
// seed, one independent stream per subsystem, so that identical
// (seed, Config) inputs produce bit-identical fault sequences — and
// therefore bit-identical simulation results — across runs, platforms
// and goroutine schedules.
package fault

import (
	"fmt"

	"ampsched/internal/amp"
	"ampsched/internal/monitor"
	"ampsched/internal/rng"
)

// DefaultSwapDelayFactor multiplies the swap overhead when a swap is
// delayed rather than dropped.
const DefaultSwapDelayFactor = 8

// Config describes a fault plan. All rates are probabilities in
// [0, 1]; a zero-valued Config injects nothing.
type Config struct {
	// Seed drives every stream of the plan. Two plans with equal Seed
	// and rates produce identical fault sequences.
	Seed uint64

	// SampleDropRate is the probability that a closed monitor window
	// is lost before the scheduler sees it (the counter read misses
	// the sampling deadline).
	SampleDropRate float64
	// SampleStaleRate is the probability that a closed window is
	// replaced by the previous window's sample (a stale counter
	// snapshot).
	SampleStaleRate float64
	// SampleNoisePct perturbs each delivered sample's IntPct/FPPct by
	// a uniform offset in [-SampleNoisePct, +SampleNoisePct]
	// percentage points (counter skew), clamped to [0, 100].
	SampleNoisePct float64

	// SwapFailRate is the probability that a requested swap is
	// silently dropped by the reconfiguration controller.
	SwapFailRate float64
	// SwapDelayRate is the probability that a surviving swap costs
	// SwapDelayFactor times the configured overhead.
	SwapDelayRate float64
	// SwapDelayFactor is the overhead multiplier for delayed swaps
	// (0 means DefaultSwapDelayFactor).
	SwapDelayFactor float64
}

// Uniform is the one-knob plan used by the resilience experiment:
// every fault class fires at the given rate. Monitor noise scales to
// rate*20 percentage points; the delay factor stays at the default.
func Uniform(rate float64, seed uint64) Config {
	return Config{
		Seed:            seed,
		SampleDropRate:  rate,
		SampleStaleRate: rate,
		SampleNoisePct:  rate * 20,
		SwapFailRate:    rate,
		SwapDelayRate:   rate,
	}
}

// Validate reports the first out-of-range knob.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SampleDropRate", c.SampleDropRate},
		{"SampleStaleRate", c.SampleStaleRate},
		{"SwapFailRate", c.SwapFailRate},
		{"SwapDelayRate", c.SwapDelayRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0, 1]", r.name, r.v)
		}
	}
	if c.SampleNoisePct < 0 || c.SampleNoisePct > 100 {
		return fmt.Errorf("fault: SampleNoisePct %g outside [0, 100]", c.SampleNoisePct)
	}
	if c.SwapDelayFactor < 0 {
		return fmt.Errorf("fault: negative SwapDelayFactor %g", c.SwapDelayFactor)
	}
	return nil
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.SampleDropRate > 0 || c.SampleStaleRate > 0 || c.SampleNoisePct > 0 ||
		c.SwapFailRate > 0 || c.SwapDelayRate > 0
}

// Stats counts the faults a plan actually injected.
type Stats struct {
	SamplesDropped uint64
	SamplesStale   uint64
	SamplesNoised  uint64
	SwapsFailed    uint64
	SwapsDelayed   uint64
}

// Stream-derivation tags. Each subsystem's stream seed is the plan
// seed mixed (via one SplitMix64 step) with a fixed tag, so streams
// are mutually independent and adding a subsystem never shifts the
// draws of an existing one.
const (
	tagSwap     = 0x5157_4150 // "SWAP"
	tagObserver = 0x4f42_5356 // "OBSV"
)

// streamSeed derives the seed of one subsystem stream.
func streamSeed(seed, tag uint64) uint64 {
	return rng.New(seed ^ tag).Uint64()
}

// Plan is an instantiated fault plan: the per-subsystem streams plus
// injection counters. A Plan is not safe for concurrent use; build
// one per simulated system (they are cheap).
type Plan struct {
	cfg     Config
	swapRng *rng.Source
	stats   Stats
	tel     planTel
}

// New validates cfg and instantiates its streams.
func New(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SwapDelayFactor == 0 {
		cfg.SwapDelayFactor = DefaultSwapDelayFactor
	}
	return &Plan{cfg: cfg, swapRng: rng.New(streamSeed(cfg.Seed, tagSwap))}, nil
}

// MustNew is New panicking on error, for statically valid configs.
func MustNew(cfg Config) *Plan {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the plan's (defaults-resolved) configuration.
func (p *Plan) Config() Config { return p.cfg }

// Stats returns the faults injected so far.
func (p *Plan) Stats() Stats { return p.stats }

// SwapOutcome implements amp.SwapInjector: each requested swap may be
// dropped or delayed. Draw order is fixed (fail, then delay) so the
// sequence is a pure function of the seed and the request count.
func (p *Plan) SwapOutcome(cycle uint64) amp.SwapOutcome {
	if p.cfg.SwapFailRate > 0 && p.swapRng.Bool(p.cfg.SwapFailRate) {
		p.stats.SwapsFailed++
		p.tel.swapFails.Inc()
		p.tel.event(cycle, "swap_fail")
		return amp.SwapOutcome{Fail: true}
	}
	if p.cfg.SwapDelayRate > 0 && p.swapRng.Bool(p.cfg.SwapDelayRate) {
		p.stats.SwapsDelayed++
		p.tel.swapDelays.Inc()
		p.tel.event(cycle, "swap_delay")
		return amp.SwapOutcome{OverheadFactor: p.cfg.SwapDelayFactor}
	}
	return amp.SwapOutcome{}
}

var _ amp.SwapInjector = (*Plan)(nil)

// Observer wraps a monitor observer with this plan's sample faults.
// tag distinguishes multiple observers of one plan (e.g. the per-core
// trackers of a scheduler): each gets an independent stream, so the
// same physical window sees uncorrelated faults on the two cores.
func (p *Plan) Observer(inner monitor.Observer, tag uint64) *FaultyObserver {
	return &FaultyObserver{
		inner: inner,
		cfg:   p.cfg,
		rng:   rng.New(streamSeed(p.cfg.Seed, tagObserver+tag<<8)),
		stats: &p.stats,
		tel:   &p.tel,
	}
}
