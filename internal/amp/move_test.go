package amp

import "testing"

func TestViewTopologyDualCore(t *testing.T) {
	sys := MustSystem(coreCfgs(), newPair(t, "gcc", "equake", 78), nil, Config{})
	if sys.NumCores() != 2 || sys.NumThreads() != 2 {
		t.Fatalf("topology = %dx%d", sys.NumCores(), sys.NumThreads())
	}
	if sys.AffinityMask(0) != AllPools || sys.AffinityMask(1) != AllPools {
		t.Fatal("dual-core threads must be unconstrained")
	}
	if sys.CorePool(0) == sys.CorePool(1) {
		t.Fatal("INT and FP cores must land in distinct pools")
	}
}
