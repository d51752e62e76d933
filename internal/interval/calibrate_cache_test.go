package interval

import (
	"fmt"
	"sync"
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// resetCalCacheForTest empties the process-global calibration cache
// and hooks its counters to tel until the test ends.
func resetCalCacheForTest(t *testing.T, tel *telemetry.Telemetry) {
	t.Helper()
	calMu.Lock()
	calCache = map[calKey]*Calibration{}
	calMu.Unlock()
	SetTelemetry(tel)
	t.Cleanup(func() {
		SetTelemetry(nil)
		calMu.Lock()
		calCache = map[calKey]*Calibration{}
		calMu.Unlock()
	})
}

// TestCalCacheHitsAndMisses pins the cache's counters: a new key is a
// miss that runs one calibration, a repeated key is a hit that returns
// the stored calibration, and concurrent misses on one key all return
// the first entry stored.
func TestCalCacheHitsAndMisses(t *testing.T) {
	tel := telemetry.New()
	resetCalCacheForTest(t, tel)

	base := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	cfgN := func(i int) *cpu.Config {
		c := *base
		c.Name = fmt.Sprintf("%s-calcache-%d", base.Name, i)
		return &c
	}
	counts := func() (calibrations, hits uint64) {
		return tel.Counter("interval.calibrations").Value(), tel.Counter("interval.cal_cache_hits").Value()
	}

	one := calibrationFor(cfgN(0), base.Units, bench)
	calibrationFor(cfgN(1), base.Units, bench)
	if cals, hits := counts(); cals != 2 || hits != 0 {
		t.Fatalf("two new keys: calibrations = %d, hits = %d, want 2, 0", cals, hits)
	}
	if again := calibrationFor(cfgN(0), base.Units, bench); again != one {
		t.Fatal("a repeated key did not return the stored calibration")
	}
	if cals, hits := counts(); cals != 2 || hits != 1 {
		t.Fatalf("one repeated key: calibrations = %d, hits = %d, want 2, 1", cals, hits)
	}

	const racers = 4
	got := make([]*Calibration, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = calibrationFor(cfgN(2), base.Units, bench)
		}()
	}
	wg.Wait()
	calMu.RLock()
	stored := calCache[calKey{cfg: *cfgN(2), units: base.Units, bench: bench.Name}]
	calMu.RUnlock()
	for i, c := range got {
		if c != stored {
			t.Fatalf("racer %d got a calibration other than the stored one", i)
		}
	}
	if cals, hits := counts(); cals < 3 || cals+hits != 2+1+racers {
		t.Fatalf("after %d racers: calibrations = %d, hits = %d; every call is one miss or one hit", racers, cals, hits)
	}
}

// TestCalibrationSingleFlight pins one calibration per key: goroutines
// that miss one key together share the first one's calibration instead
// of each running their own.
func TestCalibrationSingleFlight(t *testing.T) {
	tel := telemetry.New()
	resetCalCacheForTest(t, tel)

	cfg, bench := cpu.IntCoreConfig(), workload.MustByName("intstress")
	const missers = 8
	got := make([]*Calibration, missers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = calibrationFor(cfg, cfg.Units, bench)
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("misser %d got %p, want the shared calibration %p", i, c, got[0])
		}
	}
	reg := tel.Registry()
	if n := reg.Counter("interval.calibrations").Value(); n != 1 {
		t.Errorf("interval.calibrations = %d, want 1", n)
	}
	if n := reg.Counter("interval.cal_cache_hits").Value(); n != missers-1 {
		t.Errorf("interval.cal_cache_hits = %d, want %d", n, missers-1)
	}
}
