package cpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ampsched/internal/isa"
)

// goldenConfigs spans the structural corners of the issue stage: both
// paper cores, both morphed unit sets, a tiny ROB with a narrow issue
// width, a mid-size ROB with odd issue-queue sizes, and a slow memory
// that stretches issue-to-done latencies.
func goldenConfigs() []*Config {
	rob8 := IntCoreConfig()
	rob8.Name = "ROB8"
	rob8.ROBSize = 8
	rob8.IssueWidth = 2

	rob48 := FPCoreConfig()
	rob48.Name = "ROB48"
	rob48.ROBSize = 48
	rob48.IntISQ = 7
	rob48.FPISQ = 13

	slowMem := IntCoreConfig()
	slowMem.Name = "MEM400"
	slowMem.Caches.MemLatency = 400

	return []*Config{
		IntCoreConfig(), FPCoreConfig(),
		MorphedStrongConfig(), MorphedWeakConfig(),
		rob8, rob48, slowMem,
	}
}

// slowDivUnits is a unit set whose divider outlasts every latency of
// the paper configs.
func slowDivUnits() [NumUnitKinds]UnitSpec {
	u := MorphStrongUnits()
	u[UIntDiv] = UnitSpec{Count: 1, Latency: 60, Pipelined: false}
	u[UFPDiv] = UnitSpec{Count: 1, Latency: 45, Pipelined: true}
	return u
}

// goldenScript is randomScript with every eleventh instruction reading
// the same producer through both operands.
func goldenScript(seed uint64) []isa.Instruction {
	s := randomScript(seed, 389)
	for i := 4; i < len(s); i += 11 {
		d := int32(1 + i%5)
		s[i].Dep1, s[i].Dep2 = d, d
	}
	return s
}

// goldenDigest runs one seeded script on cfg: a first binding, an
// Unbind with an optional reconfiguration, a clock gap, and a second
// binding of the same thread that itself skips cycles twice. It hashes
// the thread's commit count at every cycle, each Unbind's squash count
// and the final engine stats.
func goldenDigest(cfg *Config, seed uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	core := NewCore(cfg)
	src := &scriptSource{script: goldenScript(seed)}
	arch := &ThreadArch{CodeBase: 1 << 30, CodeSize: 4096}
	core.Bind(src, arch)
	var cycle uint64
	for end := cycle + 6000 + 97*seed; cycle < end; cycle++ {
		core.Step(cycle)
		put(arch.Committed)
	}
	put(core.Unbind())
	switch seed % 3 {
	case 1:
		if err := core.Reconfigure(MorphStrongUnits()); err != nil {
			panic(err)
		}
	case 2:
		if err := core.Reconfigure(slowDivUnits()); err != nil {
			panic(err)
		}
	}
	cycle += 1000 + 13*seed
	core.Bind(src, arch)
	for n := 0; n < 9000; n++ {
		switch n {
		case 3000:
			cycle += 37 // a clock gap while bound, shorter than any wheel
		case 6000:
			cycle += 700 // one longer than most wheels
		}
		core.Step(cycle)
		put(arch.Committed)
		cycle++
	}
	put(core.Unbind())
	fmt.Fprintf(h, "%+v", core.Stats())
	return h.Sum64()
}

// TestDetailedCoreGolden pins the detailed core's cycle-level output,
// one digest per config over four seeds. Any change to the pipeline
// that alters a single commit cycle, a squash count or an activity
// counter changes a digest; a pure speed-up must leave every one
// exactly as recorded.
func TestDetailedCoreGolden(t *testing.T) {
	want := map[string]uint64{
		"INT":          0x58352ce9ab813106,
		"FP":           0x51c8a5798d239c76,
		"INT+strongFP": 0x16b195438caea385,
		"FP-weak":      0x50739cbe4ebd3b6a,
		"ROB8":         0x8bb84406d5317ad9,
		"ROB48":        0x29edbb42da23fb86,
		"MEM400":       0xd3401e6d0a82a01d,
	}
	for _, cfg := range goldenConfigs() {
		h := fnv.New64a()
		var buf [8]byte
		for seed := uint64(1); seed <= 4; seed++ {
			binary.LittleEndian.PutUint64(buf[:], goldenDigest(cfg, seed))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want[cfg.Name] {
			t.Errorf("%s: digest %#016x, want %#016x", cfg.Name, got, want[cfg.Name])
		}
	}
}
