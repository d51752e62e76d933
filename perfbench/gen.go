package main

import "fmt"

// benchNames is the 37-benchmark pool in the order workload.All()
// returns it (sorted by name). It is spelled out here, not imported,
// so the benchmark's inputs do not move when the program's pool does;
// the server rejects a name it does not know, which fails the run.
var benchNames = []string{
	"CRC32", "adpcm_dec", "adpcm_enc", "ammp", "applu", "apsi", "art",
	"bitcount", "blowfish", "branchstress", "bzip2", "dijkstra", "dotstress",
	"equake", "fft", "ffti", "fpstress", "gcc", "gzip", "intstress", "mcf",
	"memstress", "mesa", "mgrid", "mixstress", "mpeg2_dec", "parser",
	"patricia", "pi", "qsort", "rijndael", "sha", "stringsearch", "susan",
	"swim", "twolf", "vpr",
}

const (
	// pairsPerJob is every serve job's size: the pair batcher's
	// high-water mark, so each job fills one batch on its own.
	pairsPerJob = 8
	// slotCap is the number of job slots per option set: one slot per
	// ordered pair of distinct benchmarks. A slot fixes the pair at each
	// of the job's eight indexes, and the index is part of the cache
	// key, so distinct slots never share a key.
	slotCap = 37 * 36
	// warmJobs are the fixed warm-up slots [0, warmJobs). Their 40 pairs
	// chain every benchmark once as thread A and once as thread B, so
	// warm-up calibrates all 74 (benchmark, core) combinations. The
	// measured jobs take the slots after them, so none repeats a key.
	warmJobs = 5
)

// jobPairs is one job's explicit pair list, the pair_names of its spec.
type jobPairs [pairsPerJob][2]string

// slotPlan maps job slots to pair lists. The first warmJobs*8 entries
// of order are the fixed warm-up chain; the rest is a seeded shuffle
// of the remaining ordered pairs. Slot j takes order[(j+warmJobs*i) mod
// slotCap] at index i, a bijection over slots for each index.
type slotPlan struct {
	order [][2]int
}

// newSlotPlan builds the plan for seed.
func newSlotPlan(seed uint64) *slotPlan {
	n := len(benchNames)
	used := make(map[[2]int]bool)
	var order [][2]int
	add := func(a, b int) {
		k := [2]int{a, b}
		if a == b || used[k] {
			panic(fmt.Sprintf("perfbench: warm-up pair %v repeats", k))
		}
		used[k] = true
		order = append(order, k)
	}
	for t := 0; t < n; t++ {
		add(t, (t+1)%n)
	}
	for t := 0; len(order) < warmJobs*pairsPerJob; t++ {
		add(t, (t+2)%n)
	}
	rest := make([][2]int, 0, slotCap-len(order))
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && !used[[2]int{a, b}] {
				rest = append(rest, [2]int{a, b})
			}
		}
	}
	rng := splitmix(seed)
	for i := len(rest) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		rest[i], rest[j] = rest[j], rest[i]
	}
	return &slotPlan{order: append(order, rest...)}
}

// job returns slot j's pair list; it refuses slots past the per-option
// set capacity instead of wrapping into pairs another slot already
// computed, which would turn misses into hits.
func (p *slotPlan) job(j int) (jobPairs, error) {
	var jp jobPairs
	if j < 0 || j >= slotCap {
		return jp, fmt.Errorf("perfbench: job slot %d outside the %d-slot capacity of one option set", j, slotCap)
	}
	for i := range jp {
		o := p.order[(j+warmJobs*i)%slotCap]
		jp[i] = [2]string{benchNames[o[0]], benchNames[o[1]]}
	}
	return jp, nil
}

// slots returns the pair lists of slots [from, from+n).
func (p *slotPlan) slots(from, n int) ([]jobPairs, error) {
	out := make([]jobPairs, n)
	for k := range out {
		var err error
		if out[k], err = p.job(from + k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rng64 is splitmix64: the benchmark's own generator, so its inputs do
// not depend on the program's random number code.
type rng64 struct{ s uint64 }

func splitmix(seed uint64) *rng64 { return &rng64{s: seed} }

func (r *rng64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
