package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ampsched/internal/workload"
)

func TestBenchNamesMatchPool(t *testing.T) {
	var pool []string
	for _, b := range workload.All() {
		pool = append(pool, b.Name)
	}
	if !reflect.DeepEqual(pool, benchNames) {
		t.Fatalf("benchNames drifted from workload.All():\n got %v\nwant %v", benchNames, pool)
	}
}

func TestSlotPlanDeterministicPerSeed(t *testing.T) {
	a, b := newSlotPlan(7), newSlotPlan(7)
	if !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("same seed gave different plans")
	}
	ja, _ := a.job(warmJobs)
	jc, _ := newSlotPlan(8).job(warmJobs)
	if ja == jc {
		t.Fatal("different seeds gave the same measured job")
	}
	wa, _ := a.slots(0, warmJobs)
	wc, _ := newSlotPlan(8).slots(0, warmJobs)
	if !reflect.DeepEqual(wa, wc) {
		t.Fatal("warm-up jobs depend on the seed")
	}
}

func TestSlotsDisjointAndWarmupCovers(t *testing.T) {
	p := newSlotPlan(3)
	all, err := p.slots(0, slotCap)
	if err != nil {
		t.Fatal(err)
	}
	// A cache key holds the pair and its index, so slots are disjoint
	// when no (index, pair) repeats.
	seen := map[[3]string]int{}
	for j, jp := range all {
		for i, pr := range jp {
			if pr[0] == pr[1] {
				t.Fatalf("slot %d index %d pairs %s with itself", j, i, pr[0])
			}
			k := [3]string{string(rune('0' + i)), pr[0], pr[1]}
			if prev, ok := seen[k]; ok {
				t.Fatalf("slots %d and %d share index %d pair %v", prev, j, i, pr)
			}
			seen[k] = j
		}
	}
	asA, asB := map[string]bool{}, map[string]bool{}
	for _, jp := range all[:warmJobs] {
		for _, pr := range jp {
			asA[pr[0]], asB[pr[1]] = true, true
		}
	}
	if len(asA) != len(benchNames) || len(asB) != len(benchNames) {
		t.Fatalf("warm-up covers %d benchmarks as A and %d as B, want %d", len(asA), len(asB), len(benchNames))
	}
	if _, err := p.job(slotCap); err == nil {
		t.Fatal("slot past capacity accepted")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("driver prints %d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("metric %d: driver %s (%s), BENCHMARK.json %s (%s)", i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
