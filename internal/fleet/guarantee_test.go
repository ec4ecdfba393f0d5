package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// reloadedBundles compiles the catalog workloads and passes each bundle
// through WriteTo and Load: the bundles a serving process runs.
func reloadedBundles(t *testing.T) []*controller.Bundle {
	t.Helper()
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	var out []*controller.Bundle
	for _, name := range []string{"audio-encoder", "sdr-pipeline", "video-decoder"} {
		b, err := controller.Compile(controller.SpecFromSystem(name, cat[name], []int{1, 4, 16}))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if b, err = controller.Load(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// worstCaseStreams builds n streams over the bundles, stream k on bundle
// k mod len(bundles), under sim.WorstCase with sim.FreeOverhead: the
// conditions under which the paper's guarantee is exact, so a single
// miss is a defect, not bad luck.
func worstCaseStreams(t *testing.T, bundles []*controller.Bundle, manager string, n, cycles int) []Stream {
	t.Helper()
	opt := Options{Manager: manager, Cycles: cycles, Overhead: sim.FreeOverhead}
	streams := make([]Stream, n)
	for k := range streams {
		b := bundles[k%len(bundles)]
		s, err := BundleStream(b, fmt.Sprintf("%s-%d", b.Spec().Name, k), DeriveSeed(3, k), opt)
		if err != nil {
			t.Fatal(err)
		}
		s.Runner.Exec = sim.WorstCase{Sys: b.System()}
		streams[k] = s
	}
	return streams
}

// checkNoMisses asserts that the executed streams met every deadline
// and that there were deadlines to meet.
func checkNoMisses(t *testing.T, label string, res *Result) {
	t.Helper()
	if err := res.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	deadlines := 0
	for _, s := range res.Streams {
		if s.Stats.Misses != 0 {
			t.Fatalf("%s: stream %q missed %d of %d deadlines", label, s.Name, s.Stats.Misses, s.Stats.DeadlineRecords)
		}
		deadlines += s.Stats.DeadlineRecords
	}
	if deadlines == 0 {
		t.Fatalf("%s: no deadline ran", label)
	}
}

// TestOpenWorstCaseNoMisses is the paper's guarantee on the open engine:
// reloaded bundles under worst-case execution miss no deadline at any
// scheduler shape, while cap-K admission delays and sheds streams.
func TestOpenWorstCaseNoMisses(t *testing.T) {
	const n = 30
	bundles := reloadedBundles(t)
	times := burstyTimes(t, n, 5)
	for _, manager := range []string{"symbolic", "relaxed"} {
		streams := worstCaseStreams(t, bundles, manager, n, 3)
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, DefaultBatchCycles} {
				label := fmt.Sprintf("%s/workers=%d/batch=%d", manager, workers, batch)
				res, err := OpenRunStats(OpenConfig{Streams: streams, Arrivals: times,
					Admit: CapK{K: 2, Queue: 3}, Workers: workers, BatchCycles: batch})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Delayed == 0 || res.Shed == 0 {
					t.Fatalf("%s: admission delayed %d and shed %d streams; the shape needs both", label, res.Delayed, res.Shed)
				}
				checkNoMisses(t, label, res.FleetResult())
			}
		}
	}
}

// TestLiveRestoreWorstCaseNoMisses is the paper's guarantee across live
// restores. Worst-case streams over reloaded bundles are fed into an
// OpenLive under cap-K admission that delays and sheds some of them.
// After every feed the run is checkpointed, aborted, and restored into
// a fresh OpenLive at the other worker count, which then carries on.
// The finished run misses no deadline, and its result is identical to
// that of an OpenLive fed the same streams without interruption.
// One-cycle batches over streams of two to four cycles let a capture
// hold streams stopped mid-run; how many it holds depends on worker
// timing, but every capture holds the same backlog.
func TestLiveRestoreWorstCaseNoMisses(t *testing.T) {
	const n = 30
	bundles := reloadedBundles(t)
	times := burstyTimes(t, n, 5)
	adm := CapK{K: 2, Queue: 3}
	workers := []int{1, 4}
	for _, manager := range []string{"symbolic", "relaxed"} {
		streams := worstCaseStreams(t, bundles, manager, n, 3)
		for k := range streams {
			streams[k].Runner.Cycles = 2 + k%3
		}
		cfg := OpenLiveConfig{Admit: adm, Workers: workers[0], BatchCycles: 1, MaxLevels: maxLevelsOf(streams)}
		whole := NewOpenLive(cfg)
		for k := range streams {
			if err := whole.Feed(streams[k], times[k]); err != nil {
				t.Fatalf("%s: feed %d: %v", manager, k, err)
			}
		}
		want, err := whole.Close()
		if err != nil {
			t.Fatalf("%s: %v", manager, err)
		}

		live := NewOpenLive(cfg)
		queued := 0
		for k := range streams {
			if err := live.Feed(streams[k], times[k]); err != nil {
				t.Fatalf("%s: feed %d: %v", manager, k, err)
			}
			c, err := live.Checkpoint()
			if err != nil {
				t.Fatalf("%s: checkpoint after feed %d: %v", manager, k, err)
			}
			queued += len(c.Backlog)
			live.Abort()
			cfg.Workers = workers[(k+1)%len(workers)]
			live = NewOpenLive(cfg)
			if err := live.Restore(c, streams[:k+1], times[:k+1]); err != nil {
				t.Fatalf("%s: restore after feed %d: %v", manager, k, err)
			}
		}
		got, err := live.Close()
		if err != nil {
			t.Fatalf("%s: %v", manager, err)
		}
		label := manager + "/restored after every feed"
		if got.Delayed == 0 || got.Shed == 0 {
			t.Fatalf("%s: admission delayed %d and shed %d streams; the shape needs both", label, got.Delayed, got.Shed)
		}
		if queued == 0 {
			t.Fatalf("%s: no capture held a queued stream", label)
		}
		checkNoMisses(t, label, got.FleetResult())
		compareOpen(t, label, want, got)
	}
}
