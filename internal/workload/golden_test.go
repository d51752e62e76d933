package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"ampsched/internal/isa"
)

// streamDigest hashes every field of the first n instructions bench
// generates under seed.
func streamDigest(bench *Benchmark, seed uint64, n int) uint64 {
	h := fnv.New64a()
	var buf [18]byte
	g := NewGenerator(bench, seed, 1<<40)
	var in isa.Instruction
	for i := 0; i < n; i++ {
		g.Next(&in)
		binary.LittleEndian.PutUint64(buf[0:], in.Addr)
		binary.LittleEndian.PutUint32(buf[8:], uint32(in.Dep1))
		binary.LittleEndian.PutUint32(buf[12:], uint32(in.Dep2))
		buf[16] = byte(in.Class)
		buf[17] = 0
		if in.Taken {
			buf[17] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGeneratorStreamsGolden pins the instruction streams of the
// representative benchmarks, and of a benchmark whose dependence mean
// is exactly 1, so that no change to the generator or to the random
// draws it makes can alter a single instruction unnoticed.
func TestGeneratorStreamsGolden(t *testing.T) {
	const n = 400_000
	want := map[string]uint64{
		"bitcount":  0xd3a08ab0a216375b,
		"sha":       0x994edb56546e49cd,
		"intstress": 0x1504928b93c1ef4a,
		"fpstress":  0x0f6b2cafee6f24fc,
		"equake":    0x6999dbdc66a0f310,
		"ammp":      0x0cc4dd949e954734,
		"apsi":      0xf907fd6a86af4f70,
		"ffti":      0x20fbbff815ef7d27,
		"pi":        0x1d772d5c0a62b53e,
		"pi-serial": 0x54e2eb1e3246b660,
	}
	serial := *MustByName("pi")
	serial.Name = "pi-serial"
	serial.Phases = append([]Phase(nil), serial.Phases...)
	serial.Phases[0].MeanDepDist = 1
	benches := append(Representative(), &serial)
	for i, b := range benches {
		got := streamDigest(b, uint64(7+i), n)
		if w, ok := want[b.Name]; !ok || got != w {
			t.Errorf("%s: stream digest %#016x, want %#016x", b.Name, got, w)
		}
	}
}
