package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/interval"
	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
)

// storeOptions sizes the store tests: interval fidelity, so a sweep is
// two chunks of PairsPerPass pairs on one worker.
func storeOptions() Options {
	opt := tinyOptions()
	opt.Pairs = 12
	opt.Fidelity = interval.FidelityInterval
	opt.Parallelism = 1
	return opt
}

// storeSweep runs one sweep of opt on a runner derived from base (so
// the tests profile once) over store, returning the result and the
// sweep's telemetry.
func storeSweep(t *testing.T, base *Runner, opt Options, store *pairstore.Cache) (*SweepResult, *telemetry.Registry) {
	t.Helper()
	r := base.Derived(opt)
	r.Store = store
	tel := telemetry.New()
	r.Telemetry = tel
	sw, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return sw, tel.Registry()
}

func newStore(t *testing.T, cfg pairstore.CacheConfig) *pairstore.Cache {
	t.Helper()
	cfg.Validate = json.Valid
	c, err := pairstore.NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSweepCheckpointsAndResumes: a sweep stores every pair outcome it
// simulates, and a sweep over a store holding k of n records simulates
// exactly the n−k it lacks (a record that does not decode counts as
// lacking) and returns a result identical to an uninterrupted sweep's.
func TestSweepCheckpointsAndResumes(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := storeSweep(t, base, opt, nil)
	n := len(ref.Outcomes)

	dir := t.TempDir()
	first, reg := storeSweep(t, base, opt, newStore(t, pairstore.CacheConfig{Dir: dir}))
	if !reflect.DeepEqual(first, ref) {
		t.Fatal("sweep with a store differs from one without")
	}
	if got := reg.Counter("experiments.pairs_done").Value(); got != uint64(n) {
		t.Fatalf("fresh store: simulated %d pairs, want %d", got, n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n {
		t.Fatalf("store holds %d records on disk, want %d", len(files), n)
	}

	// Keep k records, and garble one of them past decoding.
	const k = 5
	for _, f := range files[k:] {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(files[0], []byte(`{"Failed":"yes"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, reg := storeSweep(t, base, opt, newStore(t, pairstore.CacheConfig{Dir: dir}))
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatal("resumed sweep differs from an uninterrupted one")
	}
	if got := reg.Counter("experiments.pairs_restored").Value(); got != k-1 {
		t.Errorf("restored %d pairs, want %d", got, k-1)
	}
	if got := reg.Counter("experiments.pairs_done").Value(); got != uint64(n-k+1) {
		t.Errorf("simulated %d pairs, want %d", got, n-k+1)
	}

	// A complete store simulates nothing.
	_, reg = storeSweep(t, base, opt, newStore(t, pairstore.CacheConfig{Dir: dir}))
	if got := reg.Counter("experiments.pairs_done").Value(); got != 0 {
		t.Errorf("complete store: simulated %d pairs, want 0", got)
	}
}

// TestSaveFailureRetriedByFlush: a failed Save never fails the sweep.
// Its records stay dirty, and the next chunk's Save flushes them.
func TestSaveFailureRetriedByFlush(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		calls int
	)
	failFirstSave := func(name string, data []byte, perm os.FileMode) error {
		mu.Lock()
		calls++
		fail := calls <= base.PairsPerPass() // every write of the first chunk's Save
		mu.Unlock()
		if fail {
			return errors.New("disk full")
		}
		return os.WriteFile(name, data, perm)
	}
	var failures []string
	r := base.Derived(opt)
	r.Store = newStore(t, pairstore.CacheConfig{Dir: dir, WriteFile: failFirstSave})
	r.Progress = func(s string) {
		if strings.Contains(s, "save failed") {
			failures = append(failures, s)
		}
	}
	sw, err := r.Sweep()
	if err != nil {
		t.Fatalf("a failed save failed the sweep: %v", err)
	}
	if len(failures) != 1 {
		t.Fatalf("progress reported %d failed saves, want 1: %q", len(failures), failures)
	}
	reload := newStore(t, pairstore.CacheConfig{Dir: dir})
	if reload.Len() != len(sw.Outcomes) {
		t.Fatalf("store holds %d records after the retry, want %d", reload.Len(), len(sw.Outcomes))
	}
}

// TestSweepStoresNoFailedPairs: degraded and canceled pairs never
// enter the store, so a rerun simulates them again.
func TestSweepStoresNoFailedPairs(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs := RandomPairs(opt.Pairs, opt.Seed)

	// Pair 1 degrades: its observer panics inside the run.
	r := base.Derived(opt)
	r.Store = newStore(t, pairstore.CacheConfig{})
	r.RunObserver = func(i int, _ Pair) amp.Observer {
		if i != 1 {
			return nil
		}
		return amp.ObserverFunc(func(amp.Event) { panic("boom") })
	}
	sw, err := r.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	keys := r.outcomeKeys(pairs)
	if !sw.Outcomes[1].Failed {
		t.Fatal("pair 1 did not degrade")
	}
	if _, ok := r.Store.Peek(keys[1]); ok {
		t.Error("degraded pair was stored")
	}
	if got := r.Store.Len(); got != len(pairs)-1 {
		t.Errorf("store holds %d records, want %d", got, len(pairs)-1)
	}

	// Cancel once the first chunk is delivered: the second never runs.
	r = base.Derived(opt)
	r.Store = newStore(t, pairstore.CacheConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Progress = func(string) { cancel() }
	sw, err = r.SweepContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v", err)
	}
	stored := 0
	for i, o := range sw.Outcomes {
		_, ok := r.Store.Peek(keys[i])
		if ok && o.Failed {
			t.Errorf("canceled pair %d was stored", i)
		}
		if ok {
			stored++
		}
	}
	if stored != r.PairsPerPass() || sw.Failed() != len(pairs)-stored {
		t.Errorf("stored %d pairs with %d canceled; want the first chunk of %d stored, the rest canceled",
			stored, sw.Failed(), r.PairsPerPass())
	}
}

// TestOutcomeKeysFollowTheProfile: fig7full's Derived runner runs at a
// context switch its base's profile was not sampled at, so its records
// must not share keys with a direct runner at the same options, whose
// HPE matrix comes from a different profile. Deriving alone moves no
// key.
func TestOutcomeKeysFollowTheProfile(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs := RandomPairs(opt.Pairs, opt.Seed)
	if !reflect.DeepEqual(base.Derived(opt).outcomeKeys(pairs), base.outcomeKeys(pairs)) {
		t.Fatal("deriving at the base's own options moved the keys")
	}
	full := opt
	full.ContextSwitch = amp.ContextSwitchCycles
	direct, err := NewRunner(full)
	if err != nil {
		t.Fatal(err)
	}
	derived, want := base.Derived(full).outcomeKeys(pairs), direct.outcomeKeys(pairs)
	for i := range pairs {
		if derived[i] == want[i] {
			t.Fatalf("pair %d: derived and direct runners share key %s", i, want[i])
		}
	}
}

// TestOutcomeKeysNeverServerKeys: a sweep record (a whole PairOutcome)
// and the server's PairResult for the same pair live under different
// keys in one store.
func TestOutcomeKeysNeverServerKeys(t *testing.T) {
	opt := storeOptions()
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	pairs := RandomPairs(opt.Pairs, opt.Seed)
	digest := pairstore.CoreDigest(r.IntCfg, r.FPCfg)
	server := map[string]bool{}
	for i, p := range pairs {
		server[pairstore.CacheKey(PairKeySpec(digest, opt, i, p))] = true
	}
	for i, k := range r.outcomeKeys(pairs) {
		if server[k] {
			t.Fatalf("pair %d: sweep key %s is a server key", i, k)
		}
	}
}

// TestCheckpointKeyStableAndOptionSensitive: a sweep record's key is a
// pure function of the options and the pair, so a rerun finds what an
// earlier run stored, while every option that changes an outcome moves
// every pair's key.
func TestCheckpointKeyStableAndOptionSensitive(t *testing.T) {
	opt := storeOptions()
	pairs := RandomPairs(opt.Pairs, opt.Seed)
	keysAt := func(o Options) []string {
		t.Helper()
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		return r.outcomeKeys(pairs)
	}
	want := keysAt(opt)
	if !reflect.DeepEqual(keysAt(opt), want) {
		t.Fatal("identical options keyed differently")
	}
	seen := map[string]bool{}
	for i, k := range want {
		if seen[k] {
			t.Fatalf("pair %d shares key %s with an earlier pair", i, k)
		}
		seen[k] = true
	}
	for _, m := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"seed", func(o *Options) { o.Seed++ }},
		{"instruction limit", func(o *Options) { o.InstrLimit++ }},
		{"swap overhead", func(o *Options) { o.SwapOverhead++ }},
		{"fidelity", func(o *Options) { o.Fidelity = interval.FidelitySampled }},
	} {
		o := opt
		m.mutate(&o)
		got := keysAt(o)
		for i := range pairs {
			if got[i] == want[i] {
				t.Errorf("%s change kept pair %d's key", m.name, i)
			}
		}
	}
}

// TestDirCheckpointerRoundTrip: a sweep's records survive the trip
// through a store directory, each reloading as exactly the outcome the
// sweep returned (its Pair aside, which the key names). A record stored
// again under a key that loaded from disk replaces the file rather than
// being skipped as clean.
func TestDirCheckpointerRoundTrip(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sw, _ := storeSweep(t, base, opt, newStore(t, pairstore.CacheConfig{Dir: dir}))
	keys := base.outcomeKeys(RandomPairs(opt.Pairs, opt.Seed))

	reload := newStore(t, pairstore.CacheConfig{Dir: dir})
	for i, k := range keys {
		data, ok := reload.Get(k)
		if !ok {
			t.Fatalf("pair %d's record did not reload", i)
		}
		var po PairOutcome
		if err := json.Unmarshal(data, &po); err != nil {
			t.Fatalf("pair %d's record does not decode: %v", i, err)
		}
		want := sw.Outcomes[i]
		want.Pair = Pair{}
		if !reflect.DeepEqual(po, want) {
			t.Fatalf("pair %d's record reloads as a different outcome", i)
		}
	}

	replaced := []byte(`{"Failed":true}`)
	reload.Put(keys[0], replaced)
	if err := reload.Save(); err != nil {
		t.Fatal(err)
	}
	again := newStore(t, pairstore.CacheConfig{Dir: dir})
	if data, _ := again.Get(keys[0]); !bytes.Equal(data, replaced) {
		t.Fatal("second store of pair 0 did not replace its record")
	}
	if again.Len() != len(keys) {
		t.Fatalf("store holds %d records after a replace, want %d", again.Len(), len(keys))
	}
}

// TestDirCheckpointerQuarantinesCorrupt: a record torn by a crash
// mid-Save is quarantined when the store loads, and the sweep
// simulates that one pair again and stores its record afresh.
func TestDirCheckpointerQuarantinesCorrupt(t *testing.T) {
	opt := storeOptions()
	base, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref, _ := storeSweep(t, base, opt, newStore(t, pairstore.CacheConfig{Dir: dir}))
	keys := base.outcomeKeys(RandomPairs(opt.Pairs, opt.Seed))

	path := filepath.Join(dir, keys[2]+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store := newStore(t, pairstore.CacheConfig{Dir: dir})
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("torn record not quarantined")
	}
	if _, ok := store.Peek(keys[2]); ok {
		t.Fatal("torn record loaded into the store")
	}

	resumed, reg := storeSweep(t, base, opt, store)
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatal("sweep over a quarantined record differs from an uninterrupted one")
	}
	if got := reg.Counter("experiments.pairs_done").Value(); got != 1 {
		t.Errorf("simulated %d pairs, want 1", got)
	}
	if got := reg.Counter("experiments.pairs_restored").Value(); got != uint64(len(keys)-1) {
		t.Errorf("restored %d pairs, want %d", got, len(keys)-1)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Errorf("re-simulated pair's record not stored afresh (err %v)", err)
	}
}
