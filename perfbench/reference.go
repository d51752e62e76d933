package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// reference.json holds the canonical-record digests recorded for the
// default seed at the default length, and the digest of the fixed
// warm-up jobs, which every serve run checks whatever its seed.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Warmup string              `json:"warmup"`
	Runs   map[string]refEntry `json:"runs"`
}

type refEntry struct {
	Digest string   `json:"digest"`
	Fig9   []string `json:"fig9,omitempty"`
}

var references = func() reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return r
}()

// refKey names a run's reference entry.
func refKey(e *env) string { return fmt.Sprintf("%s/seed%d/s%d", e.workload, e.seed, e.seconds) }
