package experiments

import (
	"encoding/json"

	"ampsched/internal/pairstore"
)

// Sweep resume. A Runner given a Store looks every sweep pair up in
// the content-addressed pair store before simulating it and stores
// each clean outcome there afterwards, so a sweep killed mid-run and
// restarted on the same store simulates only the pairs it lacks. The
// store is the server's (internal/pairstore), but a sweep record is a
// whole PairOutcome under its own key kind, so the two never share
// records: the server's PairResult lacks the per-decision fields that
// sweep consumers such as RunDecisions read.

// outcomeRecord is the KeySpec.Record kind of a sweep's PairOutcome.
const outcomeRecord = "outcome"

// PairKeySpec builds the KeySpec of the server's record for pair
// index i of a run resolved against opt.
func PairKeySpec(coreDigest string, opt Options, i int, p Pair) pairstore.KeySpec {
	return pairstore.KeySpec{
		Version:       pairstore.SchemaVersion,
		CoreDigest:    coreDigest,
		BenchA:        p.A.Name,
		BenchB:        p.B.Name,
		PairIndex:     i,
		Seed:          opt.Seed,
		InstrLimit:    opt.InstrLimit,
		ContextSwitch: opt.ContextSwitch,
		SwapOverhead:  opt.SwapOverhead,
		ProfileLimit:  opt.ProfileInstrLimit,
		CycleBudget:   opt.CycleBudget,
		Fidelity:      fidelityLabel(opt.Fidelity), // "" and "detailed" share records
		FaultRate:     opt.FaultRate,
		FaultSeed:     opt.FaultSeed,
	}
}

// outcomeKeys content-addresses each sweep pair's PairOutcome record.
// The profile fields come from the runner that collected the §V
// profile, not from r: a Derived runner (fig7full) can run at a
// context switch its shared profile was not sampled at.
func (r *Runner) outcomeKeys(pairs []Pair) []string {
	prof := r
	for prof.src != nil {
		prof = prof.src
	}
	digest := pairstore.CoreDigest(r.IntCfg, r.FPCfg)
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		spec := PairKeySpec(digest, r.Opt, i, p)
		spec.Record = outcomeRecord
		spec.ProfileWindow = prof.Opt.ContextSwitch
		spec.ProfileLimit = prof.Opt.ProfileInstrLimit
		keys[i] = pairstore.CacheKey(spec)
	}
	return keys
}

// restore revives every pair outcome the store holds into out. It
// returns the pairs' store keys (nil without a Store) and the indexes
// left to simulate; a record that does not decode is simulated again.
func (r *Runner) restore(pairs []Pair, out []PairOutcome) (keys []string, todo []int) {
	todo = make([]int, 0, len(pairs))
	if r.Store == nil {
		for i := range pairs {
			todo = append(todo, i)
		}
		return nil, todo
	}
	keys = r.outcomeKeys(pairs)
	for i := range pairs {
		var po PairOutcome
		if data, ok := r.Store.Get(keys[i]); ok && json.Unmarshal(data, &po) == nil {
			po.Pair = pairs[i]
			out[i] = po
			continue
		}
		todo = append(todo, i)
	}
	if n := len(pairs) - len(todo); n > 0 {
		if r.Telemetry != nil {
			r.Telemetry.Counter("experiments.pairs_restored").Add(uint64(n))
		}
		r.progress("restored %d/%d pairs from the pair store", n, len(pairs))
	}
	return keys, todo
}

// persist stores pair i's outcome, if clean, and saves the store.
// Degraded and canceled outcomes are never stored, so a rerun
// simulates them again. A failed save never fails the sweep: it is
// reported, and its records stay dirty for the next pair's Save.
func (r *Runner) persist(keys []string, i int, po PairOutcome) {
	if r.Store == nil {
		return
	}
	if !po.Failed {
		rec := po
		rec.Pair = Pair{} // the key names both benchmarks; restore re-attaches them
		if data, err := json.Marshal(rec); err != nil {
			r.progress("pair store: encoding pair %s: %v", po.Pair.Label(), err)
		} else {
			r.Store.Put(keys[i], data)
		}
	}
	if err := r.Store.Save(); err != nil {
		r.progress("pair store save failed: %v", err)
	}
}
