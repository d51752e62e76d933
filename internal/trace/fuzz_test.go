package trace

import (
	"bytes"
	"testing"

	"ampsched/internal/isa"
)

// FuzzRead hardens the trace parser against arbitrary input: it must
// either return an error or a structurally valid trace of the current
// Version, never panic. The corpus keeps an unframed v1 stream, which
// must be rejected.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and a few mutations.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "seed", CodeFootprint: 128, Count: 8})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		in := isa.Instruction{Class: isa.Class(i % int(isa.NumClasses)), Dep1: int32(i), Addr: uint64(i * 64)}
		if err := w.Write(&in); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("AMPT"))
	mutated := append([]byte{}, good...)
	mutated[7] ^= 0xff
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, instrs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if data[4] != Version {
			t.Fatalf("accepted version %d", data[4])
		}
		if hdr.Count != uint64(len(instrs)) {
			t.Fatalf("header count %d but %d records", hdr.Count, len(instrs))
		}
		if hdr.CodeFootprint == 0 || hdr.Count == 0 {
			t.Fatal("accepted degenerate header")
		}
		for i := range instrs {
			if instrs[i].Class >= isa.NumClasses {
				t.Fatalf("record %d has invalid class", i)
			}
			if instrs[i].Dep1 < 0 || instrs[i].Dep2 < 0 {
				t.Fatalf("record %d has negative dependency", i)
			}
		}
	})
}
