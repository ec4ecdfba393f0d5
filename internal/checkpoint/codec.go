// Package checkpoint persists open-fleet runs: a versioned, checksummed
// binary log of engine captures (fleet.OpenCapture), a store that
// appends one record per checkpoint and folds the log back into one
// snapshot on load, and a deterministic fault-injection harness for
// testing every crash window.
//
// A log is a sequence of records. Each record adds what changed since
// the one before it — the streams that closed since, the bundle
// activations and the stream-to-bundle bindings made since — and
// carries the complete open state: cursors, admission state, backlog,
// pending departures and the streams in service. A record that adds to
// nothing is self-contained; every log starts with one. Reading folds
// the records in order into the full snapshot of the newest.
//
// The format is defensive at three layers. Each record's envelope —
// magic, version, payload length, CRC-32 — catches torn, truncated and
// bit-flipped records before a single payload byte is interpreted; the
// payload decoder bounds-checks every read and each record must continue
// exactly where the fold stands; and the folded capture must be one
// partition of its population (fleet.OpenCapture.Validate), which
// fleet's restore checks again against the run configuration. A log
// that fails any layer is an error, never a panic and never a silently
// wrong resume.
//
//detlint:engine
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/fleet"
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
	// BundleHashes lists the controller bundles activated up to capture
	// time, in activation order (more than one across a hot swap);
	// StreamBundle maps each fed stream to an index in it. Empty
	// StreamBundle means every stream used BundleHashes[0]. Both lists
	// only grow over a run, so a log record stores only their new
	// entries.
	BundleHashes []uint64
	StreamBundle []int32
}

// Snapshot is one checkpoint: source metadata plus the engine's
// capture.
type Snapshot struct {
	Meta    Meta
	Capture *fleet.OpenCapture
}

const (
	// Version is the current format version; a record of any other
	// version is an error that names it. Version 1 stored each
	// snapshot whole, in its own file.
	Version = 2
	// headerSize is magic + version + payload length + CRC-32.
	headerSize = 8 + 4 + 8 + 4
	// maxPayload bounds the declared payload length before any
	// allocation, so a corrupt header cannot OOM the reader.
	maxPayload = 1 << 31
)

// magic opens every record.
var magic = [8]byte{'Q', 'M', 'F', 'C', 'K', 'P', 'T', 0}

// mark is where a log stands after a record: its length in bytes, the
// fingerprint and event count of the record, and how many closed
// streams, bundle activations and stream bindings the log holds. The
// zero mark is an empty log, which a self-contained record continues.
type mark struct {
	size                     int64
	fp                       string
	events                   int64
	closed, hashes, bindings int
}

// after returns the mark of a log that ends with a record of s.
func after(s *Snapshot, size int64) mark {
	return mark{size: size, fp: s.Meta.Fingerprint, events: s.Capture.Events,
		closed: s.Capture.NumClosed(), hashes: len(s.Meta.BundleHashes), bindings: len(s.Meta.StreamBundle)}
}

// continues reports whether a record of s can follow m: s is a later
// snapshot of the same run, holding everything the log already holds.
func (m mark) continues(s *Snapshot) bool {
	return s.Meta.Fingerprint == m.fp && s.Capture.Events >= m.events && s.Capture.NumClosed() >= m.closed &&
		len(s.Meta.BundleHashes) >= m.hashes && len(s.Meta.StreamBundle) >= m.bindings
}

// Encode writes s to w as a log of one self-contained record. The
// engine retains no records, so a capture carrying some is a caller bug
// and is rejected rather than silently dropped. The record is sized
// from the snapshot, encoded in one pass into one buffer and handed to
// w in a single Write.
func Encode(w io.Writer, s *Snapshot) error {
	b, err := encodeRecord(s, mark{})
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encodeRecord returns the record of s that follows a log at mark from,
// header and payload, in one buffer allocated at its exact size. The
// header is filled in place after the payload, from the bytes actually
// written.
func encodeRecord(s *Snapshot, from mark) ([]byte, error) {
	if s.Capture == nil {
		return nil, fmt.Errorf("checkpoint: snapshot without a capture")
	}
	e := enc{b: make([]byte, headerSize, headerSize+payloadSize(s, from))}
	e.meta(&s.Meta, from)
	if err := e.capture(s.Capture, from.closed); err != nil {
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
// of each list (its strings and histogram empty, a closed stream shed);
// the decoder bounds every declared count by them.
const (
	word       = 8
	traceBytes = 9 * word  // Manager's length, 8 scalars
	sinkBytes  = 13 * word // 12 scalars, QualityHist's count
	minClosed  = 5*word + 3
	minOutcome = word + traceBytes + sinkBytes // a closed stream that was admitted: Err's length, trace, sink
	minLive    = 4*word + 1 + traceBytes + sinkBytes
	minDep     = 2 * word
)

// payloadSize returns the exact encoded payload length of the record of
// s that follows mark from.
func payloadSize(s *Snapshot, from mark) int {
	m, c := &s.Meta, s.Capture
	n := word + len(m.Fingerprint) + word // fingerprint, cursor
	// Each list's offset and count, and its additions.
	n += 4*word + word*(len(m.BundleHashes)-from.hashes+len(m.StreamBundle)-from.bindings)
	n += 10 * word // capture scalars
	// The closed offset; the closed, Backlog, Departures and Live counts;
	// Backlog and Departures.
	n += 5*word + word*len(c.Backlog) + minDep*len(c.Departures)
	for i := from.closed; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		n += minClosed + len(cs.Lifecycle.Name)
		if !cs.Lifecycle.Shed {
			n += minOutcome + len(cs.Err) + len(cs.Trace.Manager) + word*len(cs.Sink.QualityHist)
		}
	}
	for i := range c.Live {
		l := &c.Live[i]
		n += minLive + len(l.Trace.Manager) + word*len(l.Sink.QualityHist)
	}
	return n
}

// record is one decoded log record: the snapshot it ends the log at,
// except that the closed streams, bundle activations and stream
// bindings are only those it adds, to a log that holds from of each.
type record struct {
	snap Snapshot
	from mark
}

// Decode reads a whole log — a single Encode or everything a Store has
// appended — and folds it into the snapshot of its newest record. Every
// record must be whole and coherent and the input must end with the
// last one: a truncated, bit-flipped or incoherent record is an error
// (Store.LoadLatest is the reader that falls back past one). Memory
// grows with the bytes the input actually holds, never with the lengths
// and counts it declares.
func Decode(r io.Reader) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	s, _, err := readLog(b)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, errors.New("checkpoint: truncated log: no record")
	}
	return s, nil
}

// readLog folds the whole, coherent records at the head of log b into
// the snapshot of the newest one. It returns that snapshot (nil when no
// record is whole), the length of the prefix those records span, and,
// when the log does not end there, the reason it stops: the first
// record that is torn, corrupt or does not continue the records before
// it, or a newest record whose folded capture is no partition, which is
// dropped for the one before it.
func readLog(b []byte) (*Snapshot, int, error) {
	var (
		recs []*record
		ends []int // end offset of each record
		at   mark  // where the log stands after recs
		stop error
	)
	for off := 0; off < len(b); {
		payload, end, err := frame(b, off)
		var r *record
		if err == nil {
			r, err = decodeRecord(payload)
		}
		if err == nil {
			err = r.follows(at, len(recs) == 0)
		}
		if err != nil {
			stop = err
			break
		}
		at = r.end()
		recs, ends = append(recs, r), append(ends, end)
		off = end
	}
	// Each record continues the last; the partition is checked once, on
	// the capture the fold ends with.
	for n := len(recs); n > 0; n-- {
		s := fold(recs[:n])
		err := s.Capture.Validate()
		if err == nil {
			return s, ends[n-1], stop
		}
		start := 0
		if n > 1 {
			start = ends[n-2]
		}
		stop = fmt.Errorf("checkpoint: record at byte %d: %w", start, err)
	}
	return nil, 0, stop
}

// follows checks that r continues a log that stands at mark at: it
// belongs to the same run (unless it is the first record) and adds to
// exactly the closed streams, activations and bindings the log holds.
func (r *record) follows(at mark, first bool) error {
	if !first && r.snap.Meta.Fingerprint != at.fp {
		return fmt.Errorf("checkpoint: record of fingerprint %q in a log of %q", r.snap.Meta.Fingerprint, at.fp)
	}
	if r.from.closed != at.closed || r.from.hashes != at.hashes || r.from.bindings != at.bindings {
		return fmt.Errorf("checkpoint: record adds to %d closed streams, %d activations and %d bindings; the log holds %d, %d and %d",
			r.from.closed, r.from.hashes, r.from.bindings, at.closed, at.hashes, at.bindings)
	}
	return nil
}

// end returns where the log stands after r (its size aside).
func (r *record) end() mark {
	m := after(&r.snap, 0)
	m.closed += r.from.closed
	m.hashes += r.from.hashes
	m.bindings += r.from.bindings
	return m
}

// fold returns the snapshot a log of recs ends at: the newest record's
// cursors and open state, with every record's closed streams, bundle
// activations and stream bindings in order, each list allocated once at
// its length. It leaves recs untouched.
func fold(recs []*record) *Snapshot {
	last := recs[len(recs)-1]
	if len(recs) == 1 {
		return &last.snap
	}
	c := *last.snap.Capture
	s := &Snapshot{Meta: last.snap.Meta, Capture: &c}
	at := last.end()
	s.Meta.BundleHashes = concat(recs, at.hashes, func(r *record) []uint64 { return r.snap.Meta.BundleHashes })
	s.Meta.StreamBundle = concat(recs, at.bindings, func(r *record) []int32 { return r.snap.Meta.StreamBundle })
	c.Closed = concat(recs, at.closed, func(r *record) []fleet.ClosedStream { return r.snap.Capture.Closed })
	return s
}

// concat joins one list of each record into one of length n, nil when
// n is 0, as the decoder leaves an empty list.
func concat[T any](recs []*record, n int, list func(*record) []T) []T {
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, r := range recs {
		out = append(out, list(r)...)
	}
	return out
}

// frame checks the record envelope at off and returns its payload and
// the offset just past it: magic, version, a payload length within the
// bound and within the input, and the checksum, before a single payload
// byte is interpreted.
func frame(b []byte, off int) ([]byte, int, error) {
	hdr := b[off:]
	if len(hdr) < headerSize {
		return nil, 0, fmt.Errorf("checkpoint: truncated record header at byte %d: %d of %d bytes", off, len(hdr), headerSize)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, 0, fmt.Errorf("checkpoint: bad magic %q at byte %d", hdr[:8], off)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return nil, 0, fmt.Errorf("checkpoint: unsupported snapshot format version %d (this build reads version %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxPayload {
		return nil, 0, fmt.Errorf("checkpoint: truncated record at byte %d: declared payload of %d bytes exceeds the %d-byte bound", off, n, maxPayload)
	}
	if rest := uint64(len(hdr) - headerSize); n > rest {
		return nil, 0, fmt.Errorf("checkpoint: truncated record at byte %d: want %d payload bytes, have %d", off, n, rest)
	}
	payload := hdr[headerSize : headerSize+int(n)]
	if sum, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[20:]); sum != want {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch at byte %d: payload hashes to %08x, header says %08x", off, sum, want)
	}
	return payload, off + headerSize + int(n), nil
}

// decodeRecord interprets one record's checksummed payload.
func decodeRecord(payload []byte) (*record, error) {
	d := dec{b: payload}
	r := &record{snap: Snapshot{Capture: new(fleet.OpenCapture)}}
	d.meta(&r.snap.Meta, &r.from)
	d.capture(r.snap.Capture, &r.from)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after the payload", len(d.b)-d.off)
	}
	return r, nil
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

// meta writes the metadata and the activations and bindings added since
// mark from, each list behind the count the log already holds.
func (e *enc) meta(m *Meta, from mark) {
	e.str(m.Fingerprint)
	e.int(m.ArrivalCursor)
	e.count(from.hashes)
	e.count(len(m.BundleHashes) - from.hashes)
	for _, h := range m.BundleHashes[from.hashes:] {
		e.u64(h)
	}
	e.count(from.bindings)
	e.count(len(m.StreamBundle) - from.bindings)
	for _, i := range m.StreamBundle[from.bindings:] {
		e.i32(i)
	}
}

// capture writes the scalars, the streams closed after the first
// closed, and the complete open state.
func (e *enc) capture(c *fleet.OpenCapture, closed int) error {
	e.i64(c.Events)
	e.int(c.Streams)
	e.int(c.NextArrival)
	e.int(c.InService)
	e.f64(c.CPULoad)
	e.time(c.FirstArrival)
	e.time(c.LastT)
	e.time(c.LastDep)
	e.f64(c.BacklogIntegral)
	e.int(c.MaxBacklog)
	e.count(closed)
	e.count(c.NumClosed() - closed)
	for i := closed; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		lc := &cs.Lifecycle
		e.i32(cs.K)
		e.str(lc.Name)
		e.time(lc.Arrival)
		e.time(lc.Admitted)
		e.time(lc.Departed)
		e.bool(lc.Queued)
		e.bool(lc.Shed)
		e.bool(lc.Failed)
		if lc.Shed {
			continue
		}
		e.str(cs.Err)
		if err := e.trace(&cs.Trace); err != nil {
			return err
		}
		e.sink(&cs.Sink)
	}
	e.count(len(c.Backlog))
	for _, k := range c.Backlog {
		e.i32(k)
	}
	e.count(len(c.Departures))
	for _, d := range c.Departures {
		e.time(d.T)
		e.i32(d.K)
	}
	e.count(len(c.Live))
	for i := range c.Live {
		l := &c.Live[i]
		e.i32(l.K)
		e.time(l.Admitted)
		e.bool(l.Queued)
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
// must not make the reader allocate more than the input carries. An
// elem of 0 reads a count of elements held elsewhere (in the records
// before this one), bounded only to fit an int32 stream index.
func (d *dec) count(elem int) int {
	n := d.u64()
	if elem == 0 {
		if n > math.MaxInt32 {
			d.fail("element count %d overflows int32", n)
			return 0
		}
		return int(n)
	}
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

// meta reads the metadata, the activations and bindings the record adds
// and, into from, the counts of each the log already held.
func (d *dec) meta(m *Meta, from *mark) {
	m.Fingerprint = d.str()
	m.ArrivalCursor = d.int()
	from.hashes = d.count(0)
	if n := d.count(word); n > 0 {
		m.BundleHashes = make([]uint64, n)
		for i := range m.BundleHashes {
			m.BundleHashes[i] = d.u64()
		}
	}
	from.bindings = d.count(0)
	if n := d.count(word); n > 0 {
		m.StreamBundle = make([]int32, n)
		for i := range m.StreamBundle {
			m.StreamBundle[i] = d.i32()
		}
	}
}

// capture reads the scalars, the closed streams the record adds (into
// Closed) with the count the log already held (into from), and the
// open state.
func (d *dec) capture(c *fleet.OpenCapture, from *mark) {
	c.Events = d.i64()
	c.Streams = d.int()
	c.NextArrival = d.int()
	c.InService = d.int()
	c.CPULoad = d.f64()
	c.FirstArrival = d.time()
	c.LastT = d.time()
	c.LastDep = d.time()
	c.BacklogIntegral = d.f64()
	c.MaxBacklog = d.int()
	from.closed = d.count(0)
	if n := d.count(minClosed); n > 0 {
		c.Closed = make([]fleet.ClosedStream, n)
		for i := range c.Closed {
			cs := &c.Closed[i]
			lc := &cs.Lifecycle
			cs.K = d.i32()
			lc.Name = d.str()
			lc.Arrival = d.time()
			lc.Admitted = d.time()
			lc.Departed = d.time()
			lc.Queued = d.bool()
			lc.Shed = d.bool()
			lc.Failed = d.bool()
			if lc.Shed {
				continue
			}
			cs.Err = d.str()
			d.trace(&cs.Trace)
			d.sink(&cs.Sink)
		}
	}
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
	if n := d.count(minLive); n > 0 {
		c.Live = make([]fleet.LiveSlot, n)
		for i := range c.Live {
			l := &c.Live[i]
			l.K = d.i32()
			l.Admitted = d.time()
			l.Queued = d.bool()
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
