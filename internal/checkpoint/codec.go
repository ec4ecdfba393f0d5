// Package checkpoint persists open-fleet runs: a versioned, checksummed
// binary snapshot format around fleet.OpenCapture, an atomic on-disk
// store with corrupt-fallback loading, and a deterministic
// fault-injection harness for testing every crash window.
//
// The format is defensive at two layers. The envelope — magic, version,
// payload length, CRC-32 — catches torn, truncated and bit-flipped
// files before a single payload byte is interpreted; the payload
// decoder bounds-checks every read; and fleet's capture restore
// re-validates every cross-reference against the run configuration. A
// snapshot that fails any layer is an error, never a panic and never a
// silently wrong resume.
//
//detlint:engine
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Meta identifies what a snapshot belongs to and where its input
// sources stood, so a resuming process can rebuild the exact run
// context before handing the capture back to the engine.
type Meta struct {
	// Fingerprint is the caller-computed identity of everything that
	// determines the run besides (workers, batch): bundle hash, stream
	// construction parameters, arrival model and seed, admission
	// policy. Resume must refuse a snapshot whose fingerprint differs —
	// the capture would be internally coherent but describe a different
	// run.
	Fingerprint string
	// ArrivalCursor counts the arrival-source entries consumed when the
	// capture was taken (NDJSON lines for a serving daemon, process
	// instants for a batch run): resume re-reads the source and skips
	// exactly this many.
	ArrivalCursor int
	// BundleHashes lists the controller bundles live at capture time
	// (more than one across a hot swap); StreamBundle maps each fed
	// stream to an index in it. Empty StreamBundle means every stream
	// used BundleHashes[0].
	BundleHashes []uint64
	StreamBundle []int32
}

// Snapshot is one persisted checkpoint: source metadata plus the
// engine's deep capture.
type Snapshot struct {
	Meta    Meta
	Capture *fleet.OpenCapture
}

// Events returns the capture's event counter — the snapshot's position
// on the engine's checkpoint-boundary clock and its on-disk name.
func (s *Snapshot) Events() int64 { return s.Capture.Events }

const (
	// Version is the current snapshot format version; Decode rejects
	// any other.
	Version = 1
	// headerSize is magic + version + payload length + CRC-32.
	headerSize = 8 + 4 + 8 + 4
	// maxPayload bounds the declared payload length before any
	// allocation, so a corrupt header cannot OOM the reader.
	maxPayload = 1 << 31
)

// magic opens every snapshot file.
var magic = [8]byte{'Q', 'M', 'F', 'C', 'K', 'P', 'T', 0}

// Encode writes s to w in the versioned, CRC-wrapped binary format.
// The engine retains no records, so a capture carrying some is a
// caller bug and is rejected rather than silently dropped.
// The snapshot is sized from the capture, encoded in one pass into one
// buffer and handed to w in a single Write.
func Encode(w io.Writer, s *Snapshot) error {
	b, err := encodeSnapshot(s)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encodeSnapshot returns s encoded, header and payload, in one buffer
// allocated at its exact size. The header is filled in place after the
// payload, from the bytes actually written.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	if s.Capture == nil {
		return nil, fmt.Errorf("checkpoint: snapshot without a capture")
	}
	e := enc{b: make([]byte, headerSize, headerSize+payloadSize(s))}
	e.meta(&s.Meta)
	if err := e.capture(s.Capture); err != nil {
		return nil, err
	}
	hdr, payload := e.b[:headerSize], e.b[headerSize:]
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(payload))
	return e.b, nil
}

// Encoded sizes. Every integer, float, time and count takes 8 bytes and
// every bool 1, so a payload's size is a sum over its counts and string
// lengths. The min* constants are the smallest encoding of one element
// of each list (its strings and histogram empty); the decoder bounds
// every declared count by them.
const (
	word         = 8
	traceBytes   = 9 * word  // Manager's length, 8 scalars
	sinkBytes    = 13 * word // 12 scalars, QualityHist's count
	minLifecycle = 4*word + 3
	minDone      = 2*word + traceBytes + sinkBytes
	minLive      = 3*word + traceBytes + sinkBytes
	minDep       = 2 * word
)

// payloadSize returns the exact encoded payload length of s.
func payloadSize(s *Snapshot) int {
	m, c := &s.Meta, s.Capture
	n := word + len(m.Fingerprint) + 3*word + word*(len(m.BundleHashes)+len(m.StreamBundle))
	n += 9*word + 5*word // scalars; Backlog, Departures, Lifecycles, Done and Live counts
	n += word*len(c.Backlog) + minDep*len(c.Departures)
	for i := range c.Lifecycles {
		n += minLifecycle + len(c.Lifecycles[i].Name)
	}
	for i := range c.Done {
		d := &c.Done[i]
		n += minDone + len(d.Err) + len(d.Trace.Manager) + word*len(d.Sink.QualityHist)
	}
	for i := range c.Live {
		l := &c.Live[i]
		n += minLive + len(l.Trace.Manager) + word*len(l.Sink.QualityHist)
	}
	return n
}

// Decode reads one snapshot, verifying magic, version, length and
// checksum before interpreting a single payload byte. A short read is
// a truncation error; a checksum mismatch names itself — the two
// failure classes the store's fallback logic distinguishes from I/O
// errors. Memory grows with the bytes the input actually holds, never
// with the lengths and counts it declares.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated snapshot header: %w", err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot version %d (have %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxPayload {
		return nil, fmt.Errorf("checkpoint: declared payload of %d bytes exceeds the %d-byte bound", n, maxPayload)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: truncated snapshot: want %d payload bytes: %w", n, err)
	}
	if sum, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[20:]); sum != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch: payload hashes to %08x, header says %08x", sum, want)
	}
	d := dec{b: payload}
	s := &Snapshot{Capture: new(fleet.OpenCapture)}
	d.meta(&s.Meta)
	d.capture(s.Capture)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the payload", len(d.b)-d.off)
	}
	return s, nil
}

// firstRead is the payload buffer's initial size; readPayload doubles
// it each time it fills, up to the declared length.
const firstRead = 64 << 10

// readPayload reads the n payload bytes a header declares. Its buffer
// starts at firstRead and at most doubles per round, so memory tracks
// the bytes that actually arrive, never what a corrupt header declares.
// A short input is io.ErrUnexpectedEOF, or io.EOF if it holds no
// payload byte at all.
func readPayload(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, firstRead))
	off := 0
	for {
		m, err := io.ReadFull(r, b[off:])
		off += m
		if err == io.EOF && off > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || off == n {
			return b[:off], err
		}
		b = append(b, make([]byte, min(n-off, off))...)
	}
}

// enc appends the payload. All integers are little-endian; signed
// values travel as two's-complement u64; floats as IEEE-754 bits, so
// restored accumulators are bit-exact.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)      { e.u64(uint64(v)) }
func (e *enc) int(v int)        { e.i64(int64(v)) }
func (e *enc) time(t core.Time) { e.i64(int64(t)) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *enc) i32(v int32)      { e.i64(int64(v)) }
func (e *enc) bool(v bool)      { e.b = append(e.b, b2u(v)) }
func (e *enc) count(n int)      { e.u64(uint64(n)) }
func (e *enc) str(s string)     { e.count(len(s)); e.b = append(e.b, s...) }

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (e *enc) meta(m *Meta) {
	e.str(m.Fingerprint)
	e.int(m.ArrivalCursor)
	e.count(len(m.BundleHashes))
	for _, h := range m.BundleHashes {
		e.u64(h)
	}
	e.count(len(m.StreamBundle))
	for _, i := range m.StreamBundle {
		e.i32(i)
	}
}

func (e *enc) capture(c *fleet.OpenCapture) error {
	e.i64(c.Events)
	e.int(c.NextArrival)
	e.int(c.InService)
	e.f64(c.CPULoad)
	e.time(c.FirstArrival)
	e.time(c.LastT)
	e.time(c.LastDep)
	e.f64(c.BacklogIntegral)
	e.int(c.MaxBacklog)
	e.count(len(c.Backlog))
	for _, k := range c.Backlog {
		e.i32(k)
	}
	e.count(len(c.Departures))
	for _, d := range c.Departures {
		e.time(d.T)
		e.i32(d.K)
	}
	e.count(len(c.Lifecycles))
	for i := range c.Lifecycles {
		lc := &c.Lifecycles[i]
		e.str(lc.Name)
		e.time(lc.Arrival)
		e.time(lc.Admitted)
		e.time(lc.Departed)
		e.bool(lc.Queued)
		e.bool(lc.Shed)
		e.bool(lc.Failed)
	}
	e.count(len(c.Done))
	for i := range c.Done {
		d := &c.Done[i]
		e.i32(d.K)
		e.str(d.Err)
		if err := e.trace(&d.Trace); err != nil {
			return err
		}
		e.sink(&d.Sink)
	}
	e.count(len(c.Live))
	for i := range c.Live {
		l := &c.Live[i]
		e.i32(l.K)
		e.time(l.State.T)
		e.int(l.State.Cycle)
		if err := e.trace(&l.Trace); err != nil {
			return err
		}
		e.sink(&l.Sink)
	}
	return nil
}

func (e *enc) trace(tr *sim.Trace) error {
	if len(tr.Records) != 0 {
		return fmt.Errorf("checkpoint: capture carries %d retained records; snapshots cover the stats path only", len(tr.Records))
	}
	e.str(tr.Manager)
	e.time(tr.Period)
	e.int(tr.Cycles)
	e.time(tr.Final)
	e.time(tr.TotalExec)
	e.time(tr.TotalOverhead)
	e.time(tr.TotalIdle)
	e.int(tr.Decisions)
	e.int(tr.Misses)
	return nil
}

func (e *enc) sink(s *sim.SinkState) {
	e.int(s.Records)
	e.int(s.Decisions)
	e.int(s.Misses)
	e.int(s.DeadlineRecords)
	e.time(s.TotalExec)
	e.time(s.TotalOverhead)
	e.f64(s.QualitySum)
	e.count(len(s.QualityHist))
	for _, v := range s.QualityHist {
		e.int(v)
	}
	e.int(s.Switches)
	e.f64(s.AbsDeltaSum)
	e.int(s.MinQ)
	e.int(s.MaxQ)
	e.i64(int64(s.LastQ))
}

// dec consumes the payload with sticky-error, bounds-checked reads:
// once a read overruns, every later read returns zero values and the
// first error is reported.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: corrupt payload at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("want %d more bytes, have %d", n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *dec) i64() int64      { return int64(d.u64()) }
func (d *dec) int() int        { return int(d.i64()) }
func (d *dec) time() core.Time { return core.Time(d.i64()) }
func (d *dec) f64() float64    { return math.Float64frombits(d.u64()) }
func (d *dec) i32() int32 {
	v := d.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// bool accepts only the two bytes the encoder writes, so every accepted
// payload re-encodes to itself.
func (d *dec) bool() bool {
	b := d.take(1)
	if b != nil && b[0] > 1 {
		d.fail("bool byte %d is neither 0 nor 1", b[0])
	}
	return b != nil && b[0] == 1
}

// count reads a declared element count and rejects one the rest of the
// payload cannot hold at elem encoded bytes per element, at least: the
// CRC already vouches for the bytes, but a logically corrupt writer
// must not make the reader allocate more than the input carries.
func (d *dec) count(elem int) int {
	n := d.u64()
	if left := uint64(len(d.b) - d.off); n > left/uint64(elem) {
		d.fail("element count %d needs at least %d bytes each, %d left", n, elem, left)
		return 0
	}
	return int(n)
}
func (d *dec) str() string {
	n := d.count(1)
	return string(d.take(n))
}

func (d *dec) meta(m *Meta) {
	m.Fingerprint = d.str()
	m.ArrivalCursor = d.int()
	if n := d.count(word); n > 0 {
		m.BundleHashes = make([]uint64, n)
		for i := range m.BundleHashes {
			m.BundleHashes[i] = d.u64()
		}
	}
	if n := d.count(word); n > 0 {
		m.StreamBundle = make([]int32, n)
		for i := range m.StreamBundle {
			m.StreamBundle[i] = d.i32()
		}
	}
}

func (d *dec) capture(c *fleet.OpenCapture) {
	c.Events = d.i64()
	c.NextArrival = d.int()
	c.InService = d.int()
	c.CPULoad = d.f64()
	c.FirstArrival = d.time()
	c.LastT = d.time()
	c.LastDep = d.time()
	c.BacklogIntegral = d.f64()
	c.MaxBacklog = d.int()
	if n := d.count(word); n > 0 {
		c.Backlog = make([]int32, n)
		for i := range c.Backlog {
			c.Backlog[i] = d.i32()
		}
	}
	if n := d.count(minDep); n > 0 {
		c.Departures = make([]fleet.DepEntry, n)
		for i := range c.Departures {
			c.Departures[i].T = d.time()
			c.Departures[i].K = d.i32()
		}
	}
	if n := d.count(minLifecycle); n > 0 {
		c.Lifecycles = make([]metrics.Lifecycle, n)
		for i := range c.Lifecycles {
			lc := &c.Lifecycles[i]
			lc.Name = d.str()
			lc.Arrival = d.time()
			lc.Admitted = d.time()
			lc.Departed = d.time()
			lc.Queued = d.bool()
			lc.Shed = d.bool()
			lc.Failed = d.bool()
		}
	}
	if n := d.count(minDone); n > 0 {
		c.Done = make([]fleet.DoneStream, n)
		for i := range c.Done {
			dn := &c.Done[i]
			dn.K = d.i32()
			dn.Err = d.str()
			d.trace(&dn.Trace)
			d.sink(&dn.Sink)
		}
	}
	if n := d.count(minLive); n > 0 {
		c.Live = make([]fleet.LiveSlot, n)
		for i := range c.Live {
			l := &c.Live[i]
			l.K = d.i32()
			l.State.T = d.time()
			l.State.Cycle = d.int()
			d.trace(&l.Trace)
			d.sink(&l.Sink)
		}
	}
}

func (d *dec) trace(tr *sim.Trace) {
	tr.Manager = d.str()
	tr.Period = d.time()
	tr.Cycles = d.int()
	tr.Final = d.time()
	tr.TotalExec = d.time()
	tr.TotalOverhead = d.time()
	tr.TotalIdle = d.time()
	tr.Decisions = d.int()
	tr.Misses = d.int()
}

func (d *dec) sink(s *sim.SinkState) {
	s.Records = d.int()
	s.Decisions = d.int()
	s.Misses = d.int()
	s.DeadlineRecords = d.int()
	s.TotalExec = d.time()
	s.TotalOverhead = d.time()
	s.QualitySum = d.f64()
	if n := d.count(word); n > 0 {
		s.QualityHist = make([]int, n)
		for i := range s.QualityHist {
			s.QualityHist[i] = d.int()
		}
	}
	s.Switches = d.int()
	s.AbsDeltaSum = d.f64()
	s.MinQ = d.int()
	s.MaxQ = d.int()
	s.LastQ = core.Level(d.i64())
}
