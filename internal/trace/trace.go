// Package trace records and replays dynamic instruction streams in a
// compact binary format.
//
// The simulator normally synthesizes instructions (internal/workload),
// but a trace file decouples workload generation from simulation: a
// stream can be captured once (from the synthetic generator here, or
// converted from an external pin/qemu-style trace) and replayed
// bit-identically into any core configuration. The format is
// self-describing, versioned, and varint-packed — a typical record is
// 3-6 bytes.
//
// Version 2 layout:
//
//	magic "AMPT" | version u8 | name len u8 | name | codeFootprint uvarint | count uvarint
//	frames until count records are delivered:
//	  sync 0xF7 0x3C | nrec uvarint | payloadLen uvarint | crc32c u32 LE | payload
//	payload is nrec packed records:
//	  class u8 | flags u8 | [dep1 uvarint] [dep2 uvarint] [addr uvarint] [takenBit in flags]
//
// Each frame (at most 1024 records) carries a CRC32-Castagnoli over
// its payload, so corruption is detected at frame granularity: the
// strict Read rejects a damaged stream outright, while ReadRecover
// skips the damaged frame, scans forward for the next sync marker,
// and returns every intact record with loss statistics — capture
// hardware glitches cost a window of records, not the whole trace.
// Any other version, the unframed v1 of early builds included, is
// rejected.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ampsched/internal/isa"
)

// Magic identifies a trace stream.
var Magic = [4]byte{'A', 'M', 'P', 'T'}

// Version of the on-disk format written by NewWriter, and the only one
// Read and ReadRecover accept.
const Version = 2

// Frame geometry.
const (
	syncA = 0xF7
	syncB = 0x3C
	// FrameRecords is the maximum records per frame — the corruption
	// blast radius of ReadRecover.
	FrameRecords = 1024
	// maxFramePayload bounds a declared payload length; larger values
	// mark a forged or corrupted frame header. Generous: the widest
	// record is 2 + 3 varints ≤ 32 bytes.
	maxFramePayload = FrameRecords * 32
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrEmptyTrace is returned when a trace holds no replayable records.
var ErrEmptyTrace = errors.New("trace: empty source")

// record flags.
const (
	flagDep1  = 1 << 0
	flagDep2  = 1 << 1
	flagAddr  = 1 << 2
	flagTaken = 1 << 3
)

// Header describes a trace.
type Header struct {
	Name          string
	CodeFootprint uint64
	Count         uint64
}

// Writer streams instructions to an io.Writer, framing them with
// CRC32C checksums.
type Writer struct {
	w         *bufio.Writer
	count     uint64
	max       uint64
	frame     []byte // packed records of the open frame
	frameRecs int
}

// NewWriter writes the header for a trace of exactly hdr.Count
// instructions and returns a Writer. Close must be called to flush.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if hdr.Count == 0 {
		return nil, fmt.Errorf("trace: zero-length trace")
	}
	if len(hdr.Name) > 255 {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(hdr.Name))
	}
	if hdr.CodeFootprint == 0 {
		return nil, fmt.Errorf("trace: zero code footprint")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(hdr.Name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(hdr.Name); err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], hdr.CodeFootprint)
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(tmp[:], hdr.Count)
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, max: hdr.Count}, nil
}

// appendRecord packs one instruction onto b.
func appendRecord(b []byte, in *isa.Instruction) []byte {
	var flags byte
	if in.Dep1 > 0 {
		flags |= flagDep1
	}
	if in.Dep2 > 0 {
		flags |= flagDep2
	}
	if in.Addr != 0 {
		flags |= flagAddr
	}
	if in.Taken {
		flags |= flagTaken
	}
	b = append(b, byte(in.Class), flags)
	var tmp [binary.MaxVarintLen64]byte
	if flags&flagDep1 != 0 {
		n := binary.PutUvarint(tmp[:], uint64(in.Dep1))
		b = append(b, tmp[:n]...)
	}
	if flags&flagDep2 != 0 {
		n := binary.PutUvarint(tmp[:], uint64(in.Dep2))
		b = append(b, tmp[:n]...)
	}
	if flags&flagAddr != 0 {
		n := binary.PutUvarint(tmp[:], in.Addr)
		b = append(b, tmp[:n]...)
	}
	return b
}

// Write appends one instruction. It errors once the declared count is
// exceeded.
func (t *Writer) Write(in *isa.Instruction) error {
	if t.count >= t.max {
		return fmt.Errorf("trace: writing beyond the declared count %d", t.max)
	}
	t.frame = appendRecord(t.frame, in)
	t.frameRecs++
	t.count++
	if t.frameRecs >= FrameRecords {
		return t.flushFrame()
	}
	return nil
}

// flushFrame emits the open frame: sync marker, record count, payload
// length, CRC32C, payload.
func (t *Writer) flushFrame() error {
	if t.frameRecs == 0 {
		return nil
	}
	var hdr [2 + 2*binary.MaxVarintLen64 + 4]byte
	hdr[0], hdr[1] = syncA, syncB
	n := 2
	n += binary.PutUvarint(hdr[n:], uint64(t.frameRecs))
	n += binary.PutUvarint(hdr[n:], uint64(len(t.frame)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(t.frame, crcTable))
	n += 4
	if _, err := t.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := t.w.Write(t.frame); err != nil {
		return err
	}
	t.frame = t.frame[:0]
	t.frameRecs = 0
	return nil
}

// Close flushes; it errors if fewer instructions than declared were
// written.
func (t *Writer) Close() error {
	if t.count != t.max {
		return fmt.Errorf("trace: wrote %d of %d declared instructions", t.count, t.max)
	}
	if err := t.flushFrame(); err != nil {
		return err
	}
	return t.w.Flush()
}

// readHeader parses the stream header.
func readHeader(br *bufio.Reader) (Header, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Header{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return Header{}, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	ver, err := br.ReadByte()
	if err != nil {
		return Header{}, err
	}
	if ver != Version {
		return Header{}, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return Header{}, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return Header{}, err
	}
	foot, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, err
	}
	if foot == 0 {
		return Header{}, fmt.Errorf("trace: zero code footprint")
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, err
	}
	if count == 0 {
		return Header{}, fmt.Errorf("trace: zero-length trace")
	}
	const sanityMax = 1 << 32
	if count > sanityMax {
		return Header{}, fmt.Errorf("trace: implausible count %d", count)
	}
	return Header{Name: string(name), CodeFootprint: foot, Count: count}, nil
}

// capHint bounds the initial allocation for a declared record count:
// never trust a forged header to demand gigabytes up front.
func capHint(count uint64) uint64 {
	if count > 1<<20 {
		return 1 << 20
	}
	return count
}

// decodeRecord unpacks one record from data, returning the bytes
// consumed.
func decodeRecord(data []byte, in *isa.Instruction) (int, error) {
	if len(data) < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	cls := data[0]
	if cls >= byte(isa.NumClasses) {
		return 0, fmt.Errorf("trace: invalid class %d", cls)
	}
	flags := data[1]
	*in = isa.Instruction{Class: isa.Class(cls), Taken: flags&flagTaken != 0}
	pos := 2
	if flags&flagDep1 != 0 {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: dep1: truncated varint")
		}
		if v > 1<<31 {
			return 0, fmt.Errorf("trace: dep1 %d overflows", v)
		}
		in.Dep1 = int32(v)
		pos += n
	}
	if flags&flagDep2 != 0 {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: dep2: truncated varint")
		}
		if v > 1<<31 {
			return 0, fmt.Errorf("trace: dep2 %d overflows", v)
		}
		in.Dep2 = int32(v)
		pos += n
	}
	if flags&flagAddr != 0 {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: addr: truncated varint")
		}
		in.Addr = v
		pos += n
	}
	return pos, nil
}

// decodeFramePayload appends exactly nrec records from payload.
func decodeFramePayload(instrs []isa.Instruction, payload []byte, nrec uint64) ([]isa.Instruction, error) {
	pos := 0
	for i := uint64(0); i < nrec; i++ {
		var in isa.Instruction
		n, err := decodeRecord(payload[pos:], &in)
		if err != nil {
			return instrs, fmt.Errorf("trace: frame record %d: %w", i, err)
		}
		pos += n
		instrs = append(instrs, in)
	}
	if pos != len(payload) {
		return instrs, fmt.Errorf("trace: frame has %d trailing bytes", len(payload)-pos)
	}
	return instrs, nil
}

// readFrameHeader parses the fixed frame prologue after the caller has
// consumed the sync marker.
func readFrameHeader(br *bufio.Reader) (nrec, payloadLen uint64, crc uint32, err error) {
	nrec, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, 0, err
	}
	if nrec == 0 || nrec > FrameRecords {
		return 0, 0, 0, fmt.Errorf("trace: implausible frame record count %d", nrec)
	}
	payloadLen, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, 0, err
	}
	if payloadLen < 2*nrec || payloadLen > maxFramePayload {
		return 0, 0, 0, fmt.Errorf("trace: implausible frame payload length %d", payloadLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return 0, 0, 0, err
	}
	return nrec, payloadLen, binary.LittleEndian.Uint32(crcBuf[:]), nil
}

// Read loads a whole trace into memory, verifying every frame
// checksum. Any corruption is a fatal error; use ReadRecover to skip
// damaged frames instead.
func Read(r io.Reader) (Header, []isa.Instruction, error) {
	br := bufio.NewReader(r)
	hdr, err := readHeader(br)
	if err != nil {
		return Header{}, nil, err
	}
	instrs := make([]isa.Instruction, 0, capHint(hdr.Count))
	for uint64(len(instrs)) < hdr.Count {
		var sync [2]byte
		if _, err := io.ReadFull(br, sync[:]); err != nil {
			return Header{}, nil, fmt.Errorf("trace: frame sync: %w", err)
		}
		if sync[0] != syncA || sync[1] != syncB {
			return Header{}, nil, fmt.Errorf("trace: bad frame sync %x%x", sync[0], sync[1])
		}
		nrec, payloadLen, crc, err := readFrameHeader(br)
		if err != nil {
			return Header{}, nil, err
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return Header{}, nil, fmt.Errorf("trace: frame payload: %w", err)
		}
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return Header{}, nil, fmt.Errorf("trace: frame checksum mismatch %08x != %08x", got, crc)
		}
		if instrs, err = decodeFramePayload(instrs, payload, nrec); err != nil {
			return Header{}, nil, err
		}
	}
	if uint64(len(instrs)) != hdr.Count {
		return Header{}, nil, fmt.Errorf("trace: frames deliver %d of %d declared records",
			len(instrs), hdr.Count)
	}
	return hdr, instrs, nil
}

// RecoverStats reports what ReadRecover salvaged and lost.
type RecoverStats struct {
	FramesOK      uint64
	FramesDropped uint64
	BytesSkipped  uint64
	// RecordsLost is the shortfall against the declared count.
	RecordsLost uint64
}

// Degraded reports whether anything was lost.
func (s RecoverStats) Degraded() bool {
	return s.FramesDropped > 0 || s.BytesSkipped > 0 || s.RecordsLost > 0
}

// ReadRecover loads a trace, skipping damaged frames instead of
// failing: on a checksum or structure error it scans forward for the
// next sync marker and resumes there. It errors only when the header
// is unreadable or no intact frame survives.
func ReadRecover(r io.Reader) (Header, []isa.Instruction, RecoverStats, error) {
	br := bufio.NewReader(r)
	hdr, err := readHeader(br)
	if err != nil {
		return Header{}, nil, RecoverStats{}, err
	}

	body, err := io.ReadAll(br)
	if err != nil {
		return Header{}, nil, RecoverStats{}, fmt.Errorf("trace: reading body: %w", err)
	}
	var stats RecoverStats
	instrs := make([]isa.Instruction, 0, capHint(hdr.Count))
	pos := 0
	for pos < len(body) && uint64(len(instrs)) < hdr.Count {
		if body[pos] != syncA || pos+1 >= len(body) || body[pos+1] != syncB {
			pos++
			stats.BytesSkipped++
			continue
		}
		got, consumed, err := parseFrame(body[pos:])
		if err != nil {
			// Corrupted frame: resync just past the marker so an
			// intact frame hiding in the damaged span is still found.
			stats.FramesDropped++
			pos += 2
			stats.BytesSkipped += 2
			continue
		}
		instrs = append(instrs, got...)
		stats.FramesOK++
		pos += consumed
	}
	stats.RecordsLost = hdr.Count - uint64(len(instrs))
	if len(instrs) == 0 {
		return Header{}, nil, stats, fmt.Errorf("trace: no intact frames: %w", ErrEmptyTrace)
	}
	return hdr, instrs, stats, nil
}

// parseFrame decodes one frame starting at the sync marker in data,
// returning its records and total encoded size.
func parseFrame(data []byte) ([]isa.Instruction, int, error) {
	pos := 2 // past sync
	nrec, n := binary.Uvarint(data[pos:])
	if n <= 0 || nrec == 0 || nrec > FrameRecords {
		return nil, 0, fmt.Errorf("trace: implausible frame record count")
	}
	pos += n
	payloadLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || payloadLen < 2*nrec || payloadLen > maxFramePayload {
		return nil, 0, fmt.Errorf("trace: implausible frame payload length")
	}
	pos += n
	if pos+4+int(payloadLen) > len(data) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	crc := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	payload := data[pos : pos+int(payloadLen)]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, fmt.Errorf("trace: frame checksum mismatch")
	}
	instrs, err := decodeFramePayload(nil, payload, nrec)
	if err != nil {
		return nil, 0, err
	}
	return instrs, pos + int(payloadLen), nil
}

// Source replays an in-memory trace as a cpu.InstrSource, wrapping
// around at the end (runs are bounded by instruction budgets, not
// trace length).
type Source struct {
	hdr     Header
	instrs  []isa.Instruction
	pos     int
	emitted uint64
}

// NewSource wraps a loaded trace. It returns ErrEmptyTrace when there
// are no records to replay.
func NewSource(hdr Header, instrs []isa.Instruction) (*Source, error) {
	if len(instrs) == 0 {
		return nil, ErrEmptyTrace
	}
	return &Source{hdr: hdr, instrs: instrs}, nil
}

// Load reads a trace from r and returns a replay source.
func Load(r io.Reader) (*Source, error) {
	hdr, instrs, err := Read(r)
	if err != nil {
		return nil, err
	}
	return NewSource(hdr, instrs)
}

// LoadRecover is Load with skip-and-resync recovery: damaged frames
// are dropped and the surviving records replay, alongside the loss
// statistics. It fails only when nothing survives.
func LoadRecover(r io.Reader) (*Source, RecoverStats, error) {
	hdr, instrs, stats, err := ReadRecover(r)
	if err != nil {
		return nil, stats, err
	}
	src, err := NewSource(hdr, instrs)
	return src, stats, err
}

// Header returns the trace metadata.
func (s *Source) Header() Header { return s.hdr }

// Emitted returns the number of instructions replayed so far.
func (s *Source) Emitted() uint64 { return s.emitted }

// Len returns the number of replayable records (may be below
// Header().Count for a recovered trace).
func (s *Source) Len() int { return len(s.instrs) }

// Next implements cpu.InstrSource.
func (s *Source) Next(in *isa.Instruction) {
	*in = s.instrs[s.pos]
	s.pos++
	if s.pos == len(s.instrs) {
		s.pos = 0
	}
	s.emitted++
}

// RecordBenchmark captures n instructions of a workload generator into
// w: the bridge from the synthetic suite to the trace world.
func RecordBenchmark(w io.Writer, name string, codeFootprint uint64, n uint64,
	next func(*isa.Instruction)) error {
	tw, err := NewWriter(w, Header{Name: name, CodeFootprint: codeFootprint, Count: n})
	if err != nil {
		return err
	}
	var in isa.Instruction
	for i := uint64(0); i < n; i++ {
		next(&in)
		if err := tw.Write(&in); err != nil {
			return err
		}
	}
	return tw.Close()
}
