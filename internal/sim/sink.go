package sim

import (
	"math"

	"repro/internal/core"
)

// Sink observes the record stream of one quality-managed run. The
// executor calls Observe exactly once per action instance, in execution
// order, with the identical Record the retained trace would have stored
// — so any aggregate computed by a sink is trace-equivalent by
// construction. Implementations are not required to be goroutine-safe:
// a sink belongs to exactly one stream.
type Sink interface {
	// Observe receives one record by value; it must not retain pointers
	// into the caller's state.
	Observe(rec Record)
}

// TraceSink retains every record — the full-retention behaviour the
// default Runner path has always had, expressed as a sink. Memory grows
// as cycles × actions; use StatsSink when only aggregates are needed.
type TraceSink struct {
	Records []Record
}

// Observe implements Sink.
func (s *TraceSink) Observe(rec Record) { s.Records = append(s.Records, rec) }

// StatsSink computes, on-line, every record-derived quantity the metrics
// layer needs — quality histogram/sum/extremes, smoothness, deadline and
// decision counts, exec and overhead totals — without retaining records:
// its memory is O(|Q|), constant in the run length. Observe never
// allocates once the histogram has reached its preallocated level count,
// which makes the steady-state fleet hot path allocation-free (proved by
// BenchmarkFleetStep).
//
// The accumulators mirror metrics.Summarize/AggregateTraces exactly:
// quality levels are small integers, so the float64 sums are exact and a
// stats-based summary is byte-equal to one computed from a retained
// trace (property-tested in the metrics package).
type StatsSink struct {
	// Records counts observed action instances; Decisions those with a
	// manager invocation; Misses the deadline violations;
	// DeadlineRecords the deadline-carrying instances.
	Records, Decisions, Misses, DeadlineRecords int
	// TotalExec and TotalOverhead accumulate the per-record execution
	// and management times.
	TotalExec, TotalOverhead core.Time
	// QualitySum is the sum of quality levels over all records;
	// QualityHist counts records per level (length = 1 + highest level
	// observed, matching the lazily-grown fleet histogram).
	QualitySum  float64
	QualityHist []int
	// Switches and AbsDeltaSum are the smoothness accumulators: the
	// number of quality changes between consecutive records and the sum
	// of their absolute differences.
	Switches    int
	AbsDeltaSum float64

	minQ, maxQ int
	lastQ      core.Level
}

// NewStatsSink returns an empty sink. levels preallocates the quality
// histogram (pass the system's level count to keep Observe
// allocation-free; 0 is valid and grows on demand).
func NewStatsSink(levels int) *StatsSink {
	s := new(StatsSink)
	s.Init(make([]int, 0, levels))
	return s
}

// Init (re)initialises s as an empty sink whose quality histogram grows
// into hist's backing array — the fleet's struct-of-arrays table hands
// every stream's sink a full-capacity window of one shared slab, so the
// accumulators of all streams stay contiguous. hist's capacity bounds
// the allocation-free level range; pass a three-index slice of the slab
// so an overflowing append reallocates instead of growing into a
// neighbouring stream's window.
func (s *StatsSink) Init(hist []int) {
	*s = StatsSink{
		QualityHist: hist[:0],
		minQ:        math.MaxInt32,
		maxQ:        -1,
	}
}

// Observe implements Sink.
//
//detlint:hotpath
func (s *StatsSink) Observe(rec Record) {
	q := int(rec.Q)
	if s.Records > 0 {
		if d := q - int(s.lastQ); d != 0 {
			s.Switches++
			s.AbsDeltaSum += math.Abs(float64(d))
		}
	}
	s.lastQ = rec.Q
	s.Records++
	s.QualitySum += float64(q)
	if q < s.minQ {
		s.minQ = q
	}
	if q > s.maxQ {
		s.maxQ = q
	}
	for len(s.QualityHist) <= q {
		//detlint:allow hotpathalloc bounded by the level count and amortized by Init's preallocated window
		s.QualityHist = append(s.QualityHist, 0)
	}
	s.QualityHist[q]++
	if rec.Decision {
		s.Decisions++
	}
	if rec.Missed {
		s.Misses++
	}
	if !rec.Deadline.IsInf() {
		s.DeadlineRecords++
	}
	s.TotalExec += rec.Exec
	s.TotalOverhead += rec.Overhead
}

// TeeSink fans one record stream out to several sinks, in order: the
// way qmfleet feeds a stream's records to both its StatsSink and a
// streaming exporter without running the stream twice.
type TeeSink []Sink

// Observe implements Sink.
func (t TeeSink) Observe(rec Record) {
	for _, s := range t {
		s.Observe(rec)
	}
}

// SinkState is the serializable form of a StatsSink: every accumulator,
// including the private smoothness and extreme trackers, as plain
// exported fields. It is what a checkpoint stores for a mid-run stream —
// State followed by RestoreState reproduces the sink exactly, so a
// resumed stream's aggregates continue bit-for-bit from where the
// snapshot cut (the sink-level half of the sim.Stream prefix property).
type SinkState struct {
	Records, Decisions, Misses, DeadlineRecords int
	TotalExec, TotalOverhead                    core.Time
	QualitySum                                  float64
	QualityHist                                 []int
	Switches                                    int
	AbsDeltaSum                                 float64
	MinQ, MaxQ                                  int
	LastQ                                       core.Level
}

// State exports the sink's full accumulator state. The histogram is
// copied, so the state does not alias the live sink.
func (s *StatsSink) State() SinkState { return s.StateInto(nil) }

// StateInto is State with the histogram copied into hist[:0]: the copy
// lands in hist's backing array when its capacity allows and is
// allocated otherwise, so a caller exporting many sinks can carve every
// histogram out of one slab (pass a three-index window, hist[a:a:b], so
// an append on one exported state cannot overwrite its neighbour). An
// empty histogram exports as nil.
func (s *StatsSink) StateInto(hist []int) SinkState {
	return s.state(append(hist[:0], s.QualityHist...))
}

// StateView is State without the copy, for a sink that is no longer
// written: the exported histogram is the sink's own, its capacity
// clipped to its length so that an append reallocates rather than
// reaching past it. The caller may read it, never write it.
func (s *StatsSink) StateView() SinkState {
	return s.state(s.QualityHist[:len(s.QualityHist):len(s.QualityHist)])
}

// state exports the accumulators around hist (nil when empty).
func (s *StatsSink) state(hist []int) SinkState {
	if len(hist) == 0 {
		hist = nil
	}
	return SinkState{
		Records: s.Records, Decisions: s.Decisions, Misses: s.Misses,
		DeadlineRecords: s.DeadlineRecords,
		TotalExec:       s.TotalExec, TotalOverhead: s.TotalOverhead,
		QualitySum:  s.QualitySum,
		QualityHist: hist,
		Switches:    s.Switches, AbsDeltaSum: s.AbsDeltaSum,
		MinQ: s.minQ, MaxQ: s.maxQ, LastQ: s.lastQ,
	}
}

// RestoreState overwrites the sink with a previously exported state. The
// histogram values are copied into the sink's existing QualityHist
// backing array when its capacity allows (the fleet table's slab
// window), so restoring into a freshly Init-ed slot sink allocates only
// when the window is too narrow.
func (s *StatsSink) RestoreState(st SinkState) {
	hist := s.QualityHist
	if cap(hist) >= len(st.QualityHist) {
		hist = hist[:len(st.QualityHist)]
		copy(hist, st.QualityHist)
	} else {
		hist = append([]int(nil), st.QualityHist...)
	}
	*s = StatsSink{
		Records: st.Records, Decisions: st.Decisions, Misses: st.Misses,
		DeadlineRecords: st.DeadlineRecords,
		TotalExec:       st.TotalExec, TotalOverhead: st.TotalOverhead,
		QualitySum:  st.QualitySum,
		QualityHist: hist,
		Switches:    st.Switches, AbsDeltaSum: st.AbsDeltaSum,
		minQ: st.MinQ, maxQ: st.MaxQ, lastQ: st.LastQ,
	}
}

// MinQuality returns the lowest observed level (0 when no records have
// been observed, matching the retained-trace summary convention).
func (s *StatsSink) MinQuality() core.Level {
	if s.Records == 0 {
		return 0
	}
	return core.Level(s.minQ)
}

// MaxQuality returns the highest observed level (0 when empty).
func (s *StatsSink) MaxQuality() core.Level {
	if s.Records == 0 {
		return 0
	}
	return core.Level(s.maxQ)
}
