package amp_test

import (
	"context"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// TestTelemetryAddsNoAllocations pins the handle sets resolved once per
// Telemetry: a pooled interval run the way a served pair runs — the
// scheduler built, the system Reset, the run under a cancelable
// context — allocates no more with telemetry attached than without,
// under each of the sweep's three policies.
func TestTelemetryAddsNoAllocations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	allocs := func(mk func(...sched.Option) amp.MoveScheduler, tel *telemetry.Telemetry) float64 {
		var th [2]amp.Thread
		threads := [2]*amp.Thread{&th[0], &th[1]}
		arm := func() {
			th[0].Reset(0, workload.MustByName("gcc"), 3, 0)
			th[1].Reset(1, workload.MustByName("equake"), 4, 1<<40)
		}
		arm()
		sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
			threads, mk(sched.WithTelemetry(tel)), amp.Config{},
			amp.WithEngine(interval.Factory()), amp.WithTelemetry(tel))
		run := func() {
			sys.Detach()
			arm()
			if err := sys.Reset(threads, mk(sched.WithTelemetry(tel)), amp.Config{}); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunContext(ctx, 600_000); err != nil {
				t.Fatal(err)
			}
		}
		run() // first-touch calibrations and handle sets
		return testing.AllocsPerRun(5, run)
	}
	tel := telemetry.New()
	for i, mk := range defaultOptionPolicies() {
		off, on := allocs(mk, nil), allocs(mk, tel)
		if on > off {
			t.Errorf("policy %d: %.0f allocations per run with telemetry, %.0f without", i, on, off)
		}
	}
}
