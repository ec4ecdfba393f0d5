package obs

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/core"
)

// EventKind names one engine lifecycle transition in the trace ring.
type EventKind uint8

const (
	EvArrive     EventKind = iota // arrival reached the frontier (T = arrival instant)
	EvAdmit                       // admission verdict: admit
	EvDelay                       // admission verdict: queue in the backlog
	EvShed                        // admission verdict: shed
	EvBind                        // stream bound to an arena slot (Arg = slot)
	EvComplete                    // stream service complete (T = departure instant, Arg = slot)
	EvSteal                       // worker stole a slot from another worker's range (Arg = slot)
	EvPark                        // worker parked: no claimable work (Arg = scheduler generation)
	EvCheckpoint                  // frontier quiesced for a snapshot (Arg = engine event count)
	EvSwap                        // controller bundle hot swap (Arg = bundle hash low bits)
)

// String returns the event name used in trace exposition. A switch,
// not a table: no allocation, no map.
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvAdmit:
		return "admit"
	case EvDelay:
		return "delay"
	case EvShed:
		return "shed"
	case EvBind:
		return "bind"
	case EvComplete:
		return "complete"
	case EvSteal:
		return "steal"
	case EvPark:
		return "park"
	case EvCheckpoint:
		return "checkpoint"
	case EvSwap:
		return "swap"
	}
	return "unknown"
}

// NoTime marks trace records with no engine instant: scheduler-side
// events (steal, park) happen between virtual instants, so they are
// ordered by Seq alone.
const NoTime core.Time = -1

// NoStream and NoWorker mark records not scoped to a stream or not
// produced by a worker goroutine (frontier-side records).
const (
	NoStream int32 = -1
	NoWorker int32 = -1
)

// Event is one trace record. T is a virtual instant (engine
// nanoseconds, never a wall clock) or NoTime; Seq is a global
// monotonic stamp assigned at record time.
type Event struct {
	Seq    int64
	T      core.Time
	Kind   EventKind
	Stream int32
	Worker int32
	Arg    int64
}

// Trace is a bounded ring of Events. Recording is mutex-serialized —
// frontier and workers write concurrently, and a lock-free lapping
// ring would race on slot reuse — so tracing is opt-in and costs a
// short critical section per lifecycle event (not per action). A nil
// *Trace is a valid no-op recorder.
type Trace struct {
	mu  sync.Mutex
	seq int64
	buf []Event
}

// DefaultTraceCap bounds the ring when NewTrace is given no capacity:
// enough for every lifecycle event of a few thousand streams.
const DefaultTraceCap = 1 << 14

// NewTrace returns a trace ring retaining the last capacity events
// (DefaultTraceCap if capacity ≤ 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Rec appends one record, overwriting the oldest when the ring is
// full. Safe on a nil receiver (no-op) and from any goroutine.
//
//detlint:hotpath
func (t *Trace) Rec(kind EventKind, at core.Time, stream, worker int32, arg int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.buf[(t.seq-1)%int64(len(t.buf))] = Event{
		Seq: t.seq, T: at, Kind: kind, Stream: stream, Worker: worker, Arg: arg,
	}
	t.mu.Unlock()
}

// Len returns the number of retained events (≤ capacity).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq < int64(len(t.buf)) {
		return int(t.seq)
	}
	return len(t.buf)
}

// Seq returns the total number of events ever recorded (recorded −
// retained = overwritten).
func (t *Trace) Seq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the retained records oldest-first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(len(t.buf))
	if t.seq < n {
		return append([]Event(nil), t.buf[:t.seq]...)
	}
	out := make([]Event, 0, n)
	head := t.seq % n // oldest retained slot
	out = append(out, t.buf[head:]...)
	out = append(out, t.buf[:head]...)
	return out
}

// chromeEvent is one Chrome trace-viewer record (the "JSON Array
// Format" chrome://tracing and Perfetto load). Instant events only:
// ph "i" with thread scope.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"` // microseconds
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	S    string     `json:"s"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Seq    int64 `json:"seq"`
	Stream int32 `json:"stream"`
	Arg    int64 `json:"arg"`
	TNanos int64 `json:"t_nanos"`
}

// chromeTrace is the top-level JSON Object Format envelope.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// Chrome trace process lanes: frontier records live on pid 0 with ts =
// virtual time; scheduler records (no engine instant) live on pid 1
// with one tid per worker and ts = Seq, so worker activity reads as an
// ordered lane per worker.
const (
	chromePIDFrontier = 0
	chromePIDSched    = 1
)

// WriteChrome renders the retained events as Chrome trace-viewer JSON.
// Virtual instants map to the viewer's microsecond axis (1 engine µs =
// 1 viewer µs); records with no instant are placed on the scheduler
// process with the event sequence number as their axis.
func (t *Trace) WriteChrome(w io.Writer) error {
	evs := t.Events()
	out := chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]chromeEvent, 0, len(evs)),
	}
	for _, e := range evs {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  "frontier",
			Ph:   "i",
			PID:  chromePIDFrontier,
			TID:  0,
			S:    "t",
			Args: chromeArgs{Seq: e.Seq, Stream: e.Stream, Arg: e.Arg, TNanos: int64(e.T)},
		}
		if e.T == NoTime {
			ce.Cat = "sched"
			ce.PID = chromePIDSched
			ce.TID = int(e.Worker)
			ce.TS = float64(e.Seq)
		} else {
			ce.TS = float64(e.T) / 1e3
			if e.Worker != NoWorker {
				ce.Cat = "sched"
				ce.TID = int(e.Worker)
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
