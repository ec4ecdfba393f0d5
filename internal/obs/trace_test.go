package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(4)
	for i := int64(1); i <= 10; i++ {
		tr.Rec(EvAdmit, core.Time(100*i), int32(i), NoWorker, 0)
	}
	if tr.Seq() != 10 {
		t.Fatalf("seq = %d, want 10", tr.Seq())
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	evs := tr.Events()
	for i, e := range evs {
		wantSeq := int64(7 + i)
		if e.Seq != wantSeq || e.T != core.Time(100*wantSeq) || e.Stream != int32(wantSeq) {
			t.Fatalf("event %d = %+v, want seq %d", i, e, wantSeq)
		}
	}
}

func TestTraceDefaultCapacity(t *testing.T) {
	tr := NewTrace(0)
	tr.Rec(EvArrive, 1, 0, NoWorker, 0)
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvArrive, EvAdmit, EvDelay, EvShed, EvBind,
		EvComplete, EvSteal, EvPark, EvCheckpoint, EvSwap}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must read unknown")
	}
}

// TestWriteChromeGolden pins the Chrome trace-viewer JSON shape: the
// exact bytes for a fixed event sequence, so any drift in the schema
// the viewer depends on fails loudly.
func TestWriteChromeGolden(t *testing.T) {
	tr := NewTrace(8)
	tr.Rec(EvArrive, 1500, 3, NoWorker, 0) // frontier lane, ts = 1.5µs
	tr.Rec(EvSteal, NoTime, 5, 2, 9)       // scheduler lane, ts = seq
	tr.Rec(EvCheckpoint, 2000, NoStream, NoWorker, 42)
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
 "displayTimeUnit": "ns",
 "traceEvents": [
  {
   "name": "arrive",
   "cat": "frontier",
   "ph": "i",
   "ts": 1.5,
   "pid": 0,
   "tid": 0,
   "s": "t",
   "args": {
    "seq": 1,
    "stream": 3,
    "arg": 0,
    "t_nanos": 1500
   }
  },
  {
   "name": "steal",
   "cat": "sched",
   "ph": "i",
   "ts": 2,
   "pid": 1,
   "tid": 2,
   "s": "t",
   "args": {
    "seq": 2,
    "stream": 5,
    "arg": 9,
    "t_nanos": -1
   }
  },
  {
   "name": "checkpoint",
   "cat": "frontier",
   "ph": "i",
   "ts": 2,
   "pid": 0,
   "tid": 0,
   "s": "t",
   "args": {
    "seq": 3,
    "stream": -1,
    "arg": 42,
    "t_nanos": 2000
   }
  }
 ]
}
`
	if got := sb.String(); got != want {
		t.Fatalf("chrome trace mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteChromeRoundTrip re-parses the JSON the writer emits the way
// the trace viewer would: a top-level object with a traceEvents array
// of instant events carrying ts/pid/tid — the structural contract for
// "loads in chrome://tracing".
func TestWriteChromeRoundTrip(t *testing.T) {
	tr := NewTrace(16)
	tr.Rec(EvArrive, 1000, 0, NoWorker, 0)
	tr.Rec(EvAdmit, 1000, 0, NoWorker, 0)
	tr.Rec(EvBind, 1000, 0, NoWorker, 7)
	tr.Rec(EvPark, NoTime, NoStream, 1, 3)
	tr.Rec(EvComplete, 5000, 0, NoWorker, 7)
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			S    string  `json:"s"`
			Args struct {
				Seq int64 `json:"seq"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	for i, e := range doc.TraceEvents {
		if e.Ph != "i" || e.S != "t" {
			t.Fatalf("event %d: ph/s = %q/%q, want instant/thread", i, e.Ph, e.S)
		}
		if e.Args.Seq != int64(i+1) {
			t.Fatalf("event %d: seq = %d, want %d", i, e.Args.Seq, i+1)
		}
		if e.TS < 0 {
			t.Fatalf("event %d: negative ts %v", i, e.TS)
		}
	}
	// The park record has no engine instant: it must land on the
	// scheduler pid with its worker as tid.
	park := doc.TraceEvents[3]
	if park.PID != chromePIDSched || park.TID != 1 {
		t.Fatalf("park event on pid/tid %d/%d, want %d/1", park.PID, park.TID, chromePIDSched)
	}
}
