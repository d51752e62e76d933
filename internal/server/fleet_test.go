package server

import "testing"

// TestJobIDNamespace pins the fleet-mode id format: distinct id
// spaces mint non-colliding ids, the single-node format stays bare.
func TestJobIDNamespace(t *testing.T) {
	submit := func(space string) string {
		srv := newTestService(t, func(c *Config) { c.JobIDSpace = space }).srv
		js, err := srv.Submit(JobSpec{Pairs: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return js[0].id
	}
	idA := submit("127.0.0.1:1111")
	idB := submit("127.0.0.1:2222")
	if idA == idB {
		t.Fatalf("two id spaces minted the same id %q", idA)
	}
	if idBare := submit(""); idBare != "1" {
		t.Fatalf("single-node first id = %q, want \"1\"", idBare)
	}
	for _, id := range []string{idA, idB} {
		if len(id) < 10 || id[8] != '-' {
			t.Fatalf("namespaced id %q does not match <8 hex>-<n>", id)
		}
	}
}
