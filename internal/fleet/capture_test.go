package fleet

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
)

// burstyTimes is the capture tests' shared arrival schedule: bursty
// enough that admission, backlog and departure events interleave.
func burstyTimes(t *testing.T, n int, seed uint64) []core.Time {
	t.Helper()
	times, err := arrivals.Bursty{GapOn: 5 * core.Millisecond, MeanOn: 20 * core.Millisecond,
		MeanOff: 60 * core.Millisecond, Seed: seed}.Times(n)
	if err != nil {
		t.Fatal(err)
	}
	return times
}

// maxLevelsOf returns the widest quality-level count in the population —
// the OpenLiveConfig.MaxLevels a live run over it needs.
func maxLevelsOf(streams []Stream) int {
	m := 0
	for k := range streams {
		if sys := streams[k].Runner.Sys; sys != nil && sys.NumLevels() > m {
			m = sys.NumLevels()
		}
	}
	return m
}

// TestOpenCheckpointEveryBoundaryResume is the tentpole's crash-safety
// property: checkpoint at EVERY event boundary of a run, then treat
// each capture as the survivor of a kill at that exact boundary —
// resuming from it (across several (workers, batch) shapes, not just
// the one that took it) must reproduce the uninterrupted serial spec
// byte for byte: stream results, lifecycles, backlog accounting,
// admission counts.
func TestOpenCheckpointEveryBoundaryResume(t *testing.T) {
	const n = 24
	streams := skewedStreams(t, n, 61)
	times := burstyTimes(t, n, 19)
	base := OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 3, Queue: -1}}

	ref, err := OpenRunStatsSerial(base)
	if err != nil {
		t.Fatal(err)
	}

	var caps []*OpenCapture
	cfg := base
	cfg.Workers = 1
	got, err := OpenRunStatsCheckpointed(cfg, nil, 1, func(c *OpenCapture) error {
		caps = append(caps, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	compareOpen(t, "checkpointed run", ref, got)
	if len(caps) == 0 {
		t.Fatal("no checkpoint boundaries hit")
	}

	shapes := []struct{ workers, batch int }{{1, 0}, {2, 1}, {4, 32}}
	for i, c := range caps {
		shape := shapes[i%len(shapes)]
		rcfg := base
		rcfg.Workers, rcfg.BatchCycles = shape.workers, shape.batch
		res, err := OpenRunStatsCheckpointed(rcfg, c, 0, nil)
		if err != nil {
			t.Fatalf("resume at boundary %d (events=%d): %v", i, c.Events, err)
		}
		compareOpen(t, "resume at boundary "+string(rune('0'+i%10)), ref, res)
	}
}

// TestOpenResumeUnderContention is the -race stress form: captures are
// taken mid-run at every (workers, batch) shape over a skewed
// population, and every capture is resumed both at the shape that took
// it and at the single-worker reference shape — all byte-identical to
// the uninterrupted serial spec. At workers > 1 the capture's split
// between finished and in-flight streams depends on worker timing; the
// property is exactly that the results never do.
func TestOpenResumeUnderContention(t *testing.T) {
	const n = 36
	streams := skewedStreams(t, n, 67)
	times := burstyTimes(t, n, 23)
	base := OpenConfig{Streams: streams, Arrivals: times, Admit: Budget{CPU: 2.5, Queue: 4}}

	ref, err := OpenRunStatsSerial(base)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ workers, batch int }{{1, 1}, {1, 0}, {2, 1}, {2, 0}, {4, 1}, {4, 0}}
	for _, shape := range shapes {
		cfg := base
		cfg.Workers, cfg.BatchCycles = shape.workers, shape.batch
		var caps []*OpenCapture
		got, err := OpenRunStatsCheckpointed(cfg, nil, 7, func(c *OpenCapture) error {
			caps = append(caps, c)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", shape.workers, shape.batch, err)
		}
		compareOpen(t, "checkpointed", ref, got)
		for i, c := range caps {
			for _, rshape := range []struct{ workers, batch int }{shape, {1, 0}} {
				rcfg := base
				rcfg.Workers, rcfg.BatchCycles = rshape.workers, rshape.batch
				res, err := OpenRunStatsCheckpointed(rcfg, c, 0, nil)
				if err != nil {
					t.Fatalf("resume capture %d at workers=%d: %v", i, rshape.workers, err)
				}
				compareOpen(t, "contended resume", ref, res)
			}
		}
	}
}

// TestOpenCaptureDeterministicAtWorkersOne pins the snapshot itself: at
// workers = 1 the engine's execution interleaving is fully determined,
// so two identical runs must produce identical capture sequences —
// the property that makes single-worker snapshot files reproducible.
func TestOpenCaptureDeterministicAtWorkersOne(t *testing.T) {
	const n = 16
	streams := skewedStreams(t, n, 73)
	times := burstyTimes(t, n, 29)
	run := func() []*OpenCapture {
		var caps []*OpenCapture
		_, err := OpenRunStatsCheckpointed(OpenConfig{
			Streams: streams, Arrivals: times, Admit: CapK{K: 2, Queue: 2}, Workers: 1,
		}, nil, 3, func(c *OpenCapture) error {
			caps = append(caps, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return caps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("capture counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(copyCapture(a[i]), copyCapture(b[i])) {
			t.Fatalf("capture %d differs between identical workers=1 runs", i)
		}
	}
}

// copyCapture returns c with its closed streams copied out of the run
// that took it: what the capture holds, comparable on its own.
func copyCapture(c *OpenCapture) *OpenCapture {
	out := *c
	out.view = closedView{}
	out.Closed = make([]ClosedStream, c.NumClosed())
	for i := range out.Closed {
		cs := c.ClosedAt(i)
		cs.Sink.QualityHist = append([]int(nil), cs.Sink.QualityHist...)
		out.Closed[i] = cs
	}
	return &out
}

// TestOpenRestoreRejectsIncoherentCapture drives the restore validator:
// a capture whose cross-references do not fit the configuration must
// fail with an error, never index out of range or run a stream twice —
// the engine-level defence behind the checkpoint package's checksum.
// Admission is capped at one stream, so the capture holds a backlog
// next to finished and live streams.
func TestOpenRestoreRejectsIncoherentCapture(t *testing.T) {
	const n = 8
	streams := skewedStreams(t, n, 79)
	times := burstyTimes(t, n, 31)
	cfg := OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 1, Queue: -1}, Workers: 1}
	var cap0 *OpenCapture
	if _, err := OpenRunStatsCheckpointed(cfg, nil, 1, func(c *OpenCapture) error {
		if cap0 == nil && len(c.Backlog) > 0 && c.NumClosed() > 0 && len(c.Live) > 0 {
			cap0 = c
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cap0 == nil {
		t.Fatal("no capture with a backlog, a finished and a live stream")
	}
	// setBacklogHead replaces the backlog's head on a copy, leaving the
	// shared capture intact for the next case.
	setBacklogHead := func(c *OpenCapture, k int32) {
		c.Backlog = append([]int32{k}, c.Backlog[1:]...)
	}
	// A departure of the first closed stream that was admitted, at the
	// instant its lifecycle departed.
	var dep DepEntry
	for i := 0; i < cap0.NumClosed(); i++ {
		if cs := cap0.ClosedAt(i); !cs.Lifecycle.Shed {
			dep = DepEntry{T: cs.Lifecycle.Departed, K: cs.K}
			break
		}
	}
	// Validate alone must reject every shape but the two that only the
	// run's population shows.
	runOnly := map[string]bool{"more streams than the run": true, "closed stream renamed": true}
	corrupt := []struct {
		name string
		mut  func(c *OpenCapture)
	}{
		{"closed stream out of range", func(c *OpenCapture) {
			c.Closed = append(c.Closed, ClosedStream{K: int32(n) + 5})
		}},
		{"live stream out of range", func(c *OpenCapture) {
			c.Live = append(c.Live, LiveSlot{K: -1})
		}},
		{"departure out of range", func(c *OpenCapture) {
			c.Departures = append(c.Departures, DepEntry{K: 99})
		}},
		{"arrival cursor out of range", func(c *OpenCapture) {
			c.NextArrival = n + 1
		}},
		{"more streams than the run", func(c *OpenCapture) {
			c.Streams = n + 1
		}},
		{"backlog stream out of range", func(c *OpenCapture) {
			setBacklogHead(c, 1<<20)
		}},
		{"backlog names a finished stream", func(c *OpenCapture) {
			setBacklogHead(c, c.ClosedAt(0).K)
		}},
		{"backlog names a live stream", func(c *OpenCapture) {
			setBacklogHead(c, c.Live[0].K)
		}},
		{"backlog names a stream twice", func(c *OpenCapture) {
			c.Backlog = append([]int32{c.Backlog[0]}, c.Backlog...)
		}},
		// The two shapes that restored and sealed a wrong result before
		// restore checked one partition: the live list naming a stream
		// twice, and a departure repeated.
		{"live list names a stream twice", func(c *OpenCapture) {
			c.Live = append(slices.Clone(c.Live), c.Live[0])
		}},
		{"departures repeat a stream", func(c *OpenCapture) {
			c.Departures = append(slices.Clone(c.Departures), dep)
		}},
		// The same, with the counts kept consistent, reach the checks
		// for a stream in two places and for a repeated departure.
		{"live list names a stream twice, arrivals kept", func(c *OpenCapture) {
			c.Live = append(slices.Clone(c.Live), c.Live[0])
			c.Backlog = c.Backlog[1:]
		}},
		{"departure repeated, in-service count kept", func(c *OpenCapture) {
			c.Departures = append(slices.Clone(c.Departures), dep, dep)
			c.InService += 2
		}},
		{"departure before its lifecycle's", func(c *OpenCapture) {
			d := dep
			d.T--
			c.Departures = append(slices.Clone(c.Departures), d)
			c.InService++
		}},
		{"closed stream renamed", func(c *OpenCapture) {
			cs := c.ClosedAt(0)
			cs.Lifecycle.Name += "x"
			c.view.order = c.view.order[1:]
			c.Closed = append([]ClosedStream{cs}, c.Closed...)
		}},
	}
	for _, tc := range corrupt {
		bad := *cap0
		// Shallow copy shares slices; mutations below only append to
		// copies or set scalars, so the original stays intact for the
		// next case.
		tc.mut(&bad)
		if err := bad.Validate(); (err == nil) != runOnly[tc.name] {
			t.Fatalf("%s: Validate = %v", tc.name, err)
		}
		if _, err := OpenRunStatsCheckpointed(cfg, &bad, 0, nil); err == nil {
			t.Fatalf("%s: restore accepted an incoherent capture", tc.name)
		} else if !strings.Contains(err.Error(), "capture") {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// TestOpenCheckpointedSteadyStateAllocationFree proves the checkpoint
// plumbing costs the hot path nothing: the checkpointed driver with no
// checkpoint interval is the exact hot path of OpenRunStats, and a run
// through it allocates as often at 256 streams as at 16.
func TestOpenCheckpointedSteadyStateAllocationFree(t *testing.T) {
	small, large := boundedAllocs(t, func(cfg OpenConfig) (*OpenResult, error) {
		return OpenRunStatsCheckpointed(cfg, nil, 0, nil)
	})
	if small != large {
		t.Fatalf("checkpointed run allocates %.0f times at 16 streams and %.0f at 256, want the same", small, large)
	}
}

// TestOpenLiveMatchesBatch is the incremental driver's equivalence
// property: feeding the population one arrival at a time (the serving
// shape) seals a result byte-identical to the batch engine — and hence
// to the serial spec — for every arrival model, at several scheduler
// shapes, including simultaneous-arrival ties that Feed must withhold
// until the watermark passes them.
func TestOpenLiveMatchesBatch(t *testing.T) {
	const n = 30
	streams := skewedStreams(t, n, 83)
	levels := maxLevelsOf(streams)
	adm := CapK{K: 3, Queue: 2}
	for model, times := range openProcesses(t, n) {
		ref, err := OpenRunStatsSerial(OpenConfig{Streams: streams, Arrivals: times, Admit: adm})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for _, shape := range []struct{ workers, batch int }{{1, 0}, {3, 2}} {
			live := NewOpenLive(OpenLiveConfig{Admit: adm, Workers: shape.workers, BatchCycles: shape.batch, MaxLevels: levels})
			for k := range streams {
				if err := live.Feed(streams[k], times[k]); err != nil {
					t.Fatalf("%s: feed %d: %v", model, k, err)
				}
			}
			res, err := live.Close()
			if err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			compareOpen(t, model+"/live", ref, res)
		}
	}
}

// TestOpenLiveCheckpointRestore kills a live run mid-stream: feed half
// the population, checkpoint, abandon the engine (the crash), rebuild a
// fresh OpenLive from the capture plus the re-fed prefix, feed the
// rest, and seal — byte-identical to the run that never stopped, across
// scheduler shapes on both sides of the crash.
func TestOpenLiveCheckpointRestore(t *testing.T) {
	const n = 26
	streams := skewedStreams(t, n, 89)
	times := burstyTimes(t, n, 37)
	levels := maxLevelsOf(streams)
	adm := Budget{CPU: 2.5, Queue: -1}

	ref, err := OpenRunStatsSerial(OpenConfig{Streams: streams, Arrivals: times, Admit: adm})
	if err != nil {
		t.Fatal(err)
	}

	cut := n / 2
	for _, before := range []int{1, 4} {
		for _, after := range []int{1, 2} {
			victim := NewOpenLive(OpenLiveConfig{Admit: adm, Workers: before, MaxLevels: levels})
			for k := 0; k < cut; k++ {
				if err := victim.Feed(streams[k], times[k]); err != nil {
					t.Fatal(err)
				}
			}
			cap0, err := victim.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			victim.Abort() // the crash: nothing after the capture survives

			heir := NewOpenLive(OpenLiveConfig{Admit: adm, Workers: after, MaxLevels: levels})
			if err := heir.Restore(cap0, streams[:cut], times[:cut]); err != nil {
				t.Fatalf("restore (workers %d→%d): %v", before, after, err)
			}
			for k := cut; k < n; k++ {
				if err := heir.Feed(streams[k], times[k]); err != nil {
					t.Fatal(err)
				}
			}
			res, err := heir.Close()
			if err != nil {
				t.Fatal(err)
			}
			compareOpen(t, "live resume", ref, res)
		}
	}
}

// TestOpenLiveValidation pins the incremental driver's input contract:
// out-of-order arrivals, over-wide streams and misuse after Close are
// errors, not corruption.
func TestOpenLiveValidation(t *testing.T) {
	streams := mixedStreams(t, 3, 1, 91)
	levels := maxLevelsOf(streams)
	live := NewOpenLive(OpenLiveConfig{Workers: 1, MaxLevels: levels})
	if err := live.Feed(streams[0], 10); err != nil {
		t.Fatal(err)
	}
	if err := live.Feed(streams[1], 5); err == nil {
		t.Fatal("out-of-order Feed accepted")
	}
	if err := live.Feed(streams[1], core.TimeInf); err == nil {
		t.Fatal("infinite arrival accepted")
	}
	narrow := NewOpenLive(OpenLiveConfig{Workers: 1, MaxLevels: 1})
	if err := narrow.Feed(streams[0], 0); err == nil || !strings.Contains(err.Error(), "MaxLevels") {
		t.Fatalf("over-wide stream accepted: %v", err)
	}
	narrow.Abort()
	if _, err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if err := live.Feed(streams[1], 20); err == nil {
		t.Fatal("Feed after Close accepted")
	}
	if _, err := live.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	empty := NewOpenLive(OpenLiveConfig{Workers: 1})
	if _, err := empty.Close(); err != errNoStreams {
		t.Fatalf("empty Close: %v", err)
	}
}

// TestOpenLiveCheckpointAllocsFlat: a capture copies the open state
// only and views the closed streams, so a Checkpoint with nothing new to
// copy allocates the same bytes with 12 finished streams as with 48. The
// histograms it reports must still be independent: appending to one
// cannot reach its neighbour.
func TestOpenLiveCheckpointAllocsFlat(t *testing.T) {
	const n = 49
	streams := mixedStreams(t, n, 2, 97)
	live := NewOpenLive(OpenLiveConfig{Workers: 1, MaxLevels: maxLevelsOf(streams)})
	defer live.Abort()
	var bytes []uint64
	k := 0
	for _, finished := range []int{12, 48} {
		// Arrivals one second apart: each stream departs long before the
		// next arrives, and feeding stream k settles every earlier event.
		for ; k <= finished; k++ {
			if err := live.Feed(streams[k], core.Time(k)*core.Second); err != nil {
				t.Fatal(err)
			}
		}
		c, err := live.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumClosed() != finished {
			t.Fatalf("capture holds %d finished streams, want %d", c.NumClosed(), finished)
		}
		first, second := c.ClosedAt(0), c.ClosedAt(1)
		want := slices.Clone(second.Sink.QualityHist)
		_ = append(first.Sink.QualityHist, -1)
		if got := c.ClosedAt(1).Sink.QualityHist; !reflect.DeepEqual(got, want) {
			t.Fatal("appending to one captured histogram overwrote its neighbour")
		}
		bytes = append(bytes, checkpointBytes(t, live))
	}
	t.Logf("bytes one Checkpoint allocates with 12 and 48 finished streams: %v", bytes)
	if bytes[1] != bytes[0] {
		t.Fatalf("Checkpoint allocates %d bytes with 12 finished streams and %d with 48; want no growth", bytes[0], bytes[1])
	}
}

// checkpointBytes returns the heap bytes one Checkpoint of live
// allocates, averaged over a few, in the quietest of three windows.
// TotalAlloc counts the whole process, and on a loaded host a window can
// catch bytes the checkpoints did not allocate (5,240 in ten, seen under
// two concurrent test processes); what one Checkpoint allocates shows in
// every window.
func checkpointBytes(t *testing.T, live *OpenLive) uint64 {
	t.Helper()
	const runs = 10
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}
