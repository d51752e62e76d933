package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the least sample count for a p99: at 1000 samples
// ten lie beyond it.
const minTailSamples = 1000

// percentile returns the q-quantile (nearest rank) of xs. A p99 (or any
// q past the median) is refused unless at least ten samples lie beyond
// it, so a tail figure never rests on one or two outliers.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("perfbench: percentile of no samples")
	}
	if q > 0.5 && float64(len(xs))*(1-q) < 10-1e-9 {
		return 0, fmt.Errorf("perfbench: p%g needs at least %d samples, have %d",
			100*q, int(math.Ceil(10/(1-q))), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median is percentile(xs, 0.5), 0 for no samples.
func median(xs []float64) float64 {
	m, _ := percentile(xs, 0.5)
	return m
}

// mean is the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// canonicalRecord returns a pair record's bytes with the per-response
// "cached" flag removed and object keys sorted. Numbers keep their
// literal text, so the canonical form is exact.
func canonicalRecord(line []byte) ([]byte, map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, nil, fmt.Errorf("perfbench: decoding record: %w", err)
	}
	delete(m, "cached")
	out, err := json.Marshal(m)
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: encoding record: %w", err)
	}
	return out, m, nil
}

// recordSet maps each content address to its canonical record bytes.
type recordSet map[string][]byte

// add records key's bytes, failing when the key was already seen with
// different bytes: a pair record is a pure function of its key.
func (rs recordSet) add(key string, canon []byte) error {
	if prev, ok := rs[key]; ok && !bytes.Equal(prev, canon) {
		return fmt.Errorf("perfbench: key %s served two different records", key)
	}
	rs[key] = canon
	return nil
}

// digest hashes the records sorted by key, so neither arrival order
// nor the cached flag moves it.
func (rs recordSet) digest() string {
	keys := make([]string, 0, len(rs))
	for k := range rs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write(rs[k])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkJobRecords checks one finished job: it ended "done" with one
// record per requested pair, in index order, none failed.
func checkJobRecords(want jobPairs, state string, recs []map[string]any) error {
	if state != "done" {
		return fmt.Errorf("perfbench: job ended %q, want done", state)
	}
	if len(recs) != len(want) {
		return fmt.Errorf("perfbench: job delivered %d pairs, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if f, _ := r["failed"].(bool); f {
			return fmt.Errorf("perfbench: pair %d failed: %v", i, r["error"])
		}
		if idx, _ := r["index"].(json.Number); idx.String() != fmt.Sprint(i) {
			return fmt.Errorf("perfbench: record %d carries index %v", i, r["index"])
		}
		if label := want[i][0] + "+" + want[i][1]; r["pair"] != label {
			return fmt.Errorf("perfbench: record %d is pair %v, want %s", i, r["pair"], label)
		}
		if k, _ := r["key"].(string); k == "" {
			return fmt.Errorf("perfbench: record %d has no key", i)
		}
	}
	return nil
}

// counterRule is one identity over a measured-phase counter delta.
type counterRule struct {
	name string
	want float64
}

// checkCounters applies the identities to the deltas.
func checkCounters(delta map[string]float64, rules []counterRule) error {
	for _, r := range rules {
		if got := delta[r.name]; got != r.want {
			return fmt.Errorf("perfbench: %s changed by %g over the measured phase, want %g", r.name, got, r.want)
		}
	}
	return nil
}

// checkDigest compares a digest with its recorded reference; an empty
// reference (no record for this seed and length) passes.
func checkDigest(what, got, want string) error {
	if want != "" && got != want {
		return fmt.Errorf("perfbench: %s digest %s, reference %s", what, got, want)
	}
	return nil
}
