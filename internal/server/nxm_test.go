package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/experiments"
	"ampsched/internal/pairstore"
)

// nxmSpec is a tiny two-rung sweep sized for test speed.
func nxmSpec() JobSpec {
	return JobSpec{NXM: &NXMJobSpec{
		Cores:          []int{2, 4},
		ThreadsPerCore: 2,
		Cycles:         20_000,
		Quantum:        5_000,
	}}
}

func TestNXMJobEndToEnd(t *testing.T) {
	s := newTestService(t, nil)
	st := s.postJob(t, nxmSpec())
	final := s.waitDone(t, st.ID)
	if final.State != "done" {
		t.Fatalf("job state %q (err %q), want done", final.State, final.Error)
	}
	if final.Completed != 2 || len(final.Results) != 2 {
		t.Fatalf("completed %d results %d, want 2/2", final.Completed, len(final.Results))
	}
	wantLabels := []string{"nxm:2x4", "nxm:4x8"}
	for i, r := range final.Results {
		if r.Failed {
			t.Fatalf("rung %s degraded: %s", r.Pair, r.Err)
		}
		if r.Pair != wantLabels[i] {
			t.Fatalf("rung %d label %q, want %q", i, r.Pair, wantLabels[i])
		}
		if r.NXM == nil {
			t.Fatalf("rung %s missing nxm payload", r.Pair)
		}
		if r.Key == "" {
			t.Fatalf("rung %s missing cache key", r.Pair)
		}
		for _, name := range experiments.NXMPolicyNames() {
			if r.NXM.Weighted[name] <= 0 {
				t.Fatalf("rung %s policy %s weighted IPC/Watt %g, want > 0",
					r.Pair, name, r.NXM.Weighted[name])
			}
		}
	}
}

// TestNXMJobByteIdenticalAcrossServers is the acceptance criterion
// end-to-end: two independent server instances (separate caches,
// separate profiling passes) must serve byte-identical nxm payloads
// for the same spec.
func TestNXMJobByteIdenticalAcrossServers(t *testing.T) {
	run := func() []string {
		s := newTestService(t, nil)
		st := s.postJob(t, nxmSpec())
		final := s.waitDone(t, st.ID)
		if final.State != "done" {
			t.Fatalf("job state %q (err %q), want done", final.State, final.Error)
		}
		var out []string
		for _, r := range final.Results {
			b, err := json.Marshal(r.NXM)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Key+" "+string(b))
		}
		return out
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nxm results differ across servers:\n%v\nvs\n%v", a, b)
	}
}

func TestNXMJobCachedOnResubmit(t *testing.T) {
	s := newTestService(t, nil)
	first := s.waitDone(t, s.postJob(t, nxmSpec()).ID)
	if first.State != "done" {
		t.Fatalf("first job state %q", first.State)
	}
	second := s.waitDone(t, s.postJob(t, nxmSpec()).ID)
	if second.State != "done" {
		t.Fatalf("second job state %q", second.State)
	}
	if second.CacheHits != 2 {
		t.Fatalf("resubmit cache hits %d, want 2", second.CacheHits)
	}
	for i := range second.Results {
		if second.Results[i].Key != first.Results[i].Key {
			t.Fatalf("rung %d key changed across resubmits", i)
		}
	}
}

func TestNXMKeySpec(t *testing.T) {
	opt := testOptions()
	base := nxmKeySpec("digest", opt, 64)
	if base.Topology == "" || base.PairIndex != 64 {
		t.Fatalf("nxm key spec incomplete: %+v", base)
	}
	// Identity: same inputs, same key.
	if pairstore.CacheKey(base) != pairstore.CacheKey(nxmKeySpec("digest", opt, 64)) {
		t.Fatal("identical nxm specs hash differently")
	}
	// Sensitivity: topology knobs and seed all move the key.
	for name, mutate := range map[string]func(*experiments.Options){
		"seed":    func(o *experiments.Options) { o.Seed++ },
		"threads": func(o *experiments.Options) { o.NXMThreadsPerCore = 3 },
		"cycles":  func(o *experiments.Options) { o.NXMCycles = 77_000 },
		"quantum": func(o *experiments.Options) { o.NXMQuantum = 9_000 },
	} {
		m := opt
		mutate(&m)
		if pairstore.CacheKey(nxmKeySpec("digest", m, 64)) == pairstore.CacheKey(base) {
			t.Fatalf("key insensitive to %s", name)
		}
	}
	if pairstore.CacheKey(nxmKeySpec("digest", opt, 128)) == pairstore.CacheKey(base) {
		t.Fatal("key insensitive to core count")
	}
	// Knobs the sweep does not read must not move the key.
	m := opt
	m.InstrLimit = 999_999
	m.ContextSwitch = 123_456
	if pairstore.CacheKey(nxmKeySpec("digest", m, 64)) != pairstore.CacheKey(base) {
		t.Fatal("key sensitive to pair-only knobs")
	}
}

// TestPairKeyUnchangedByTopologyField guards cache compatibility: the
// omitempty fields other record kinds use (Topology for nxm rungs;
// Record and ProfileWindow for sweep outcomes) must not appear in
// marshaled pair key specs, so every pre-existing pair cache entry
// keeps its address. One key is pinned outright.
func TestPairKeyUnchangedByTopologyField(t *testing.T) {
	opt := testOptions()
	pairs := experiments.RandomPairs(1, opt.Seed)
	spec := experiments.PairKeySpec("digest", opt, 0, pairs[0])
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"topology", "record", "profile_window"} {
		if strings.Contains(string(b), field) {
			t.Fatalf("pair key spec leaks %s field: %s", field, b)
		}
	}

	opt = experiments.DefaultOptions()
	opt.Fidelity = "interval"
	pairs = experiments.RandomPairs(1, opt.Seed)
	digest := pairstore.CoreDigest(cpu.IntCoreConfig(), cpu.FPCoreConfig())
	if got, want := pairs[0].Label()+" "+digest, "equake+mpeg2_dec e088c3f91ea1d8ab"; got != want {
		t.Fatalf("pinned pair = %s, want %s", got, want)
	}
	const want = "fd5daf75f7bfd058469ae8b4488acfddf69b97cb455b467ab31daab9382b1a9b"
	if got := pairstore.CacheKey(experiments.PairKeySpec(digest, opt, 0, pairs[0])); got != want {
		t.Fatalf("server key for %s = %s, want %s: every cached record moved", pairs[0].Label(), got, want)
	}
}
