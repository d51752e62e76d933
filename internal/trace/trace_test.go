package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/rng"
	"ampsched/internal/workload"
)

func randomInstrs(seed uint64, n int) []isa.Instruction {
	r := rng.New(seed)
	out := make([]isa.Instruction, n)
	for i := range out {
		in := &out[i]
		in.Class = isa.Class(r.Intn(int(isa.NumClasses)))
		if r.Bool(0.6) {
			in.Dep1 = int32(r.Intn(1000) + 1)
		}
		if r.Bool(0.3) {
			in.Dep2 = int32(r.Intn(1000) + 1)
		}
		if in.Class.IsMem() || r.Bool(0.1) {
			in.Addr = r.Uint64n(1 << 40)
		}
		if in.Class == isa.Branch {
			in.Taken = r.Bool(0.5)
		}
	}
	return out
}

func roundTrip(t *testing.T, instrs []isa.Instruction) (Header, []isa.Instruction) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "t", CodeFootprint: 4096, Count: uint64(len(instrs))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, got
}

func TestRoundTrip(t *testing.T) {
	instrs := randomInstrs(1, 5000)
	hdr, got := roundTrip(t, instrs)
	if hdr.Name != "t" || hdr.CodeFootprint != 4096 || hdr.Count != 5000 {
		t.Fatalf("header: %+v", hdr)
	}
	for i := range instrs {
		if instrs[i] != got[i] {
			t.Fatalf("record %d: %+v != %+v", i, instrs[i], got[i])
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		instrs := randomInstrs(seed, n)
		_, got := roundTrip(t, instrs)
		for i := range instrs {
			if instrs[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEncoding(t *testing.T) {
	// 10k plain ALU ops should cost ~2 bytes each plus the header.
	instrs := make([]isa.Instruction, 10_000)
	for i := range instrs {
		instrs[i].Class = isa.IntALU
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "alu", CodeFootprint: 1024, Count: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// ~2 bytes per record plus the stream header and ~10 bytes of
	// frame overhead (sync + counts + CRC) per 1024-record frame.
	if buf.Len() > 10_000*2+64+(10_000/FrameRecords+1)*16 {
		t.Fatalf("encoding too fat: %d bytes for 10k records", buf.Len())
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Name: "x", CodeFootprint: 1, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := NewWriter(&buf, Header{Name: "x", CodeFootprint: 0, Count: 1}); err == nil {
		t.Fatal("zero footprint accepted")
	}
	if _, err := NewWriter(&buf, Header{Name: strings.Repeat("a", 300), CodeFootprint: 1, Count: 1}); err == nil {
		t.Fatal("overlong name accepted")
	}
}

func TestWriterCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "x", CodeFootprint: 64, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := isa.Instruction{Class: isa.IntALU}
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&in); err == nil {
		t.Fatal("write beyond count accepted")
	}
}

func TestWriterCloseShort(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "x", CodeFootprint: 64, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := isa.Instruction{Class: isa.IntALU}
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short trace accepted at Close")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	instrs := randomInstrs(2, 100)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "c", CodeFootprint: 64, Count: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []func([]byte) []byte{
		func(b []byte) []byte { b[0] = 'X'; return b }, // magic
		func(b []byte) []byte { b[4] = 99; return b },  // version
		func(b []byte) []byte { return b[:len(b)/2] },  // truncated
		// First frame's sync marker: 4 magic + 1 version + 1 namelen +
		// 1 name + 1 footprint varint + 1 count varint = offset 9.
		func(b []byte) []byte { b[9] = byte(isa.NumClasses); return b },
		// A payload byte: the frame CRC must catch a single bit flip.
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
	}
	for i, corrupt := range cases {
		c := append([]byte{}, good...)
		if _, _, err := Read(bytes.NewReader(corrupt(c))); err == nil {
			t.Errorf("corruption case %d accepted", i)
		}
	}
}

func TestSourceWrapsAround(t *testing.T) {
	instrs := randomInstrs(3, 10)
	src, err := NewSource(Header{Name: "w", CodeFootprint: 64, Count: 10}, instrs)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Instruction
	for i := 0; i < 25; i++ {
		src.Next(&in)
		if in != instrs[i%10] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	if src.Emitted() != 25 {
		t.Fatalf("emitted = %d", src.Emitted())
	}
}

func TestRecordBenchmarkAndReplayOnCore(t *testing.T) {
	// Capture a synthetic benchmark, replay it into a core, and check
	// the replayed run commits the same instruction mix.
	b := workload.MustByName("pi")
	gen := workload.NewGenerator(b, 9, 0)
	var buf bytes.Buffer
	const n = 20_000
	err := RecordBenchmark(&buf, b.Name, b.EffectiveCodeFootprint(), n, gen.Next)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.Header().Name != "pi" {
		t.Fatalf("header name %q", src.Header().Name)
	}

	core := cpu.NewCore(cpu.IntCoreConfig())
	arch := &cpu.ThreadArch{CodeSize: src.Header().CodeFootprint}
	core.Bind(src, arch)
	for cycle := uint64(0); arch.Committed < n/2; cycle++ {
		core.Step(cycle)
	}
	if arch.IntPct() < 10 {
		t.Fatalf("replayed pi IntPct %.1f implausible", arch.IntPct())
	}
	if arch.FPPct() < 10 {
		t.Fatalf("replayed pi FPPct %.1f implausible", arch.FPPct())
	}
}

func TestGeneratorVsTraceReplayIdenticalTiming(t *testing.T) {
	// A recorded trace replayed through the same core must produce
	// the exact cycle count of the live generator (determinism across
	// the recording boundary).
	b := workload.MustByName("sha")
	const n = 15_000

	runLive := func() (uint64, uint64) {
		gen := workload.NewGenerator(b, 4, 0)
		core := cpu.NewCore(cpu.IntCoreConfig())
		arch := &cpu.ThreadArch{CodeSize: b.EffectiveCodeFootprint()}
		core.Bind(gen, arch)
		var cycle uint64
		for arch.Committed < n {
			core.Step(cycle)
			cycle++
		}
		return cycle, arch.Committed
	}

	var buf bytes.Buffer
	gen := workload.NewGenerator(b, 4, 0)
	if err := RecordBenchmark(&buf, b.Name, b.EffectiveCodeFootprint(), 2*n, gen.Next); err != nil {
		t.Fatal(err)
	}
	src, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runTrace := func() (uint64, uint64) {
		core := cpu.NewCore(cpu.IntCoreConfig())
		arch := &cpu.ThreadArch{CodeSize: src.Header().CodeFootprint}
		core.Bind(src, arch)
		var cycle uint64
		for arch.Committed < n {
			core.Step(cycle)
			cycle++
		}
		return cycle, arch.Committed
	}

	liveCycles, liveCommits := runLive()
	traceCycles, traceCommits := runTrace()
	if liveCycles != traceCycles || liveCommits != traceCommits {
		t.Fatalf("trace replay diverged: live %d/%d vs trace %d/%d cycles/commits",
			liveCycles, liveCommits, traceCycles, traceCommits)
	}
}

func TestNewSourceRejectsEmpty(t *testing.T) {
	if _, err := NewSource(Header{}, nil); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("empty source: err = %v, want ErrEmptyTrace", err)
	}
}

// writeTrace marshals instrs with the current writer.
func writeTrace(t *testing.T, instrs []isa.Instruction) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Name: "r", CodeFootprint: 256, Count: uint64(len(instrs))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRecoverCleanStream(t *testing.T) {
	instrs := randomInstrs(5, 3000)
	hdr, got, stats, err := ReadRecover(bytes.NewReader(writeTrace(t, instrs)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded() {
		t.Fatalf("clean stream reported degraded: %+v", stats)
	}
	if hdr.Count != 3000 || len(got) != 3000 {
		t.Fatalf("count %d records %d", hdr.Count, len(got))
	}
	for i := range instrs {
		if instrs[i] != got[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestReadRecoverSkipsCorruptFrame(t *testing.T) {
	// 3000 records = 3 frames (1024+1024+952). Corrupt a byte in the
	// middle of the second frame: strict Read must fail, ReadRecover
	// must salvage the first and third frames.
	instrs := randomInstrs(6, 3000)
	good := writeTrace(t, instrs)

	// Walk the first frame to find where the second one starts: the
	// stream header (magic, version, name, footprint, count), then each
	// frame is sync(2) + nrec uvarint + payloadLen uvarint + crc(4) +
	// payload.
	var tmp [binary.MaxVarintLen64]byte
	pos := 4 + 1 + 1 + len("r")
	pos += binary.PutUvarint(tmp[:], 256)
	pos += binary.PutUvarint(tmp[:], 3000)
	if good[pos] != syncA || good[pos+1] != syncB {
		t.Fatalf("first frame sync not at offset %d", pos)
	}
	p := pos + 2
	_, n1 := binary.Uvarint(good[p:])
	p += n1
	payloadLen, n2 := binary.Uvarint(good[p:])
	p += n2 + 4
	second := p + int(payloadLen)
	if good[second] != syncA || good[second+1] != syncB {
		t.Fatalf("second frame sync not at offset %d", second)
	}
	bad := append([]byte{}, good...)
	bad[second+20] ^= 0xff // inside the second frame's payload

	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("strict Read accepted a corrupt frame")
	}
	hdr, got, stats, err := ReadRecover(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if hdr.Count != 3000 {
		t.Fatalf("header count %d", hdr.Count)
	}
	if !stats.Degraded() || stats.FramesDropped == 0 || stats.RecordsLost == 0 {
		t.Fatalf("loss not reported: %+v", stats)
	}
	if stats.FramesOK != 2 || stats.RecordsLost != 1024 {
		t.Fatalf("expected to lose exactly the damaged frame: %+v", stats)
	}
	// First frame intact...
	for i := 0; i < 1024; i++ {
		if got[i] != instrs[i] {
			t.Fatalf("recovered record %d differs", i)
		}
	}
	// ...and the third frame follows immediately after.
	for i := 1024; i < len(got); i++ {
		if got[i] != instrs[i+1024] {
			t.Fatalf("post-gap record %d did not resync", i)
		}
	}
}

func TestReadRecoverNothingLeft(t *testing.T) {
	instrs := randomInstrs(7, 100) // single frame
	bad := writeTrace(t, instrs)
	bad[len(bad)-5] ^= 0xff // corrupt the only frame
	if _, _, _, err := ReadRecover(bytes.NewReader(bad)); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("total loss: err = %v, want ErrEmptyTrace", err)
	}
}

func TestLoadRecover(t *testing.T) {
	instrs := randomInstrs(8, 2100)
	src, stats, err := LoadRecover(bytes.NewReader(writeTrace(t, instrs)))
	if err != nil || stats.Degraded() {
		t.Fatalf("clean LoadRecover: %v %+v", err, stats)
	}
	if src.Len() != 2100 {
		t.Fatalf("Len %d", src.Len())
	}
}
