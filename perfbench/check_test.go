package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/experiments"
	"ampsched/internal/workload"
)

func TestPercentileRefusesSparseTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	xs = append(xs, 999)
	p99, err := percentile(xs, 0.99)
	if err != nil || p99 != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989", p99, err)
	}
	if m, err := percentile([]float64{4}, 0.5); err != nil || m != 4 {
		t.Fatalf("median of one sample = %v, %v", m, err)
	}
}

// record renders a pair record the way the stream endpoint does.
func record(i int, a, b, key string, cached bool) []byte {
	s := fmt.Sprintf(`{"index":%d,"pair":"%s+%s","key":"%s","proposed":{"cycles":123456789012,"swaps":3,"ipc_per_watt":[0.1234567890123,2.5],"committed":[1500000,1499999]},"weighted_vs_hpe_pct":-1.25`, i, a, b, key)
	if cached {
		s += `,"cached":true`
	}
	return []byte(s + "}\n")
}

func TestDigestIgnoresCachedFlagAndKeyOrder(t *testing.T) {
	c1, _, err := canonicalRecord(record(0, "gcc", "mcf", "k0", false))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := canonicalRecord(record(0, "gcc", "mcf", "k0", true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("cached flag changed the canonical bytes:\n%s\n%s", c1, c2)
	}
	if !bytes.Contains(c1, []byte("123456789012")) || !bytes.Contains(c1, []byte("0.1234567890123")) {
		t.Fatalf("canonical form lost number text: %s", c1)
	}
	a, b := recordSet{}, recordSet{}
	for i := 0; i < 4; i++ {
		c, _, _ := canonicalRecord(record(i, "gcc", "mcf", fmt.Sprint("k", i), i%2 == 0))
		_ = a.add(fmt.Sprint("k", i), c)
	}
	for i := 3; i >= 0; i-- {
		c, _, _ := canonicalRecord(record(i, "gcc", "mcf", fmt.Sprint("k", i), i%2 == 1))
		_ = b.add(fmt.Sprint("k", i), c)
	}
	if a.digest() != b.digest() {
		t.Fatal("digest depends on arrival order or the cached flag")
	}
}

// validJob returns a job's pairs and its records.
func validJob() (jobPairs, [][]byte) {
	var jp jobPairs
	var lines [][]byte
	for i := range jp {
		jp[i] = [2]string{benchNames[i], benchNames[i+1]}
		lines = append(lines, record(i, jp[i][0], jp[i][1], fmt.Sprint("key", i), false))
	}
	return jp, lines
}

func decodeAll(t *testing.T, lines [][]byte) []map[string]any {
	var recs []map[string]any
	for _, l := range lines {
		_, m, err := canonicalRecord(l)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestJobCheckFailsOnPerturbedRecord(t *testing.T) {
	jp, lines := validJob()
	if err := checkJobRecords(jp, "done", decodeAll(t, lines)); err != nil {
		t.Fatalf("valid job refused: %v", err)
	}
	perturb := map[string]func([][]byte) ([][]byte, string){
		"failed pair": func(l [][]byte) ([][]byte, string) {
			l[3] = bytes.Replace(l[3], []byte(`{`), []byte(`{"failed":true,`), 1)
			return l, "done"
		},
		"wrong index": func(l [][]byte) ([][]byte, string) {
			l[2] = bytes.Replace(l[2], []byte(`"index":2`), []byte(`"index":5`), 1)
			return l, "done"
		},
		"wrong pair": func(l [][]byte) ([][]byte, string) {
			l[1] = bytes.Replace(l[1], []byte(`"pair":"`), []byte(`"pair":"x`), 1)
			return l, "done"
		},
		"missing pair": func(l [][]byte) ([][]byte, string) { return l[:7], "done" },
		"failed job":   func(l [][]byte) ([][]byte, string) { return l, "failed" },
	}
	for name, f := range perturb {
		_, fresh := validJob()
		l, state := f(fresh)
		if err := checkJobRecords(jp, state, decodeAll(t, l)); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestRecordChecksFailOnPerturbedByte(t *testing.T) {
	_, lines := validJob()
	set := recordSet{}
	for i, l := range lines {
		c, _, _ := canonicalRecord(l)
		if err := set.add(fmt.Sprint("key", i), c); err != nil {
			t.Fatal(err)
		}
	}
	flipped, _, _ := canonicalRecord(bytes.Replace(lines[4], []byte("-1.25"), []byte("-1.26"), 1))
	if err := set.add("key4", flipped); err == nil {
		t.Fatal("one key with two different records accepted")
	}
	ref := set.digest()
	other := recordSet{}
	for k, v := range set {
		other[k] = v
	}
	other["key4"] = flipped
	if err := checkDigest("records", other.digest(), ref); err == nil {
		t.Fatal("digest of a perturbed record matched the reference")
	}
	if err := checkDigest("records", set.digest(), ref); err != nil {
		t.Fatal(err)
	}
}

func TestCounterCheckFailsOnPerturbedCounter(t *testing.T) {
	rules := []counterRule{{"interval.calibrations", 0}, {"server.cache_hits", 0}, {"server.cache_misses", 8000}}
	good := map[string]float64{"server.cache_misses": 8000}
	if err := checkCounters(good, rules); err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		bad := map[string]float64{"server.cache_misses": 8000}
		bad[r.name]++
		if err := checkCounters(bad, rules); err == nil || !strings.Contains(err.Error(), r.name) {
			t.Errorf("perturbed %s passed: %v", r.name, err)
		}
	}
}

func TestSweepCheckFailsOnDegradedOrBrokenPair(t *testing.T) {
	a, _ := workload.ByName("gcc")
	b, _ := workload.ByName("mcf")
	run := amp.Result{Cycles: 10}
	run.Threads[0].Committed, run.Threads[1].Committed = 100, 90
	run.Threads[0].IPCPerWatt, run.Threads[1].IPCPerWatt = 1, 2
	ok := experiments.PairOutcome{Pair: experiments.Pair{A: a, B: b}, Proposed: run, HPE: run, RR: run}
	if err := checkSweep(&experiments.SweepResult{Outcomes: []experiments.PairOutcome{ok}}, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(&experiments.SweepResult{Outcomes: []experiments.PairOutcome{ok}}, 100, 2); err == nil {
		t.Error("miscounted deliveries: check passed")
	}
	degraded := ok
	degraded.Failed, degraded.Err = true, "wedged"
	broken := ok
	broken.HPE.Threads[1].IPCPerWatt = 0
	short := ok
	short.RR.Threads[0].Committed = 99
	for name, o := range map[string]experiments.PairOutcome{"degraded": degraded, "zero IPC/Watt": broken, "short run": short} {
		if err := checkSweep(&experiments.SweepResult{Outcomes: []experiments.PairOutcome{o}}, 100, 1); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "phase", Parent: -1, StartMS: 0, EndMS: 10},
		{Name: "job", Parent: 0, StartMS: 1, EndMS: 5},
		{Name: "job", Parent: 0, StartMS: 3, EndMS: 7}, // overlaps the first
	}
	st := selfTimes(spans)
	if st[0].name != "phase" || st[0].self != 4 {
		t.Fatalf("phase self time %v, want 4 (10 minus the union 1..7)", st[0].self)
	}
	if st[1].count != 2 || st[1].self != 8 {
		t.Fatalf("job stats %+v, want 2 spans with 8ms self", st[1])
	}
}
