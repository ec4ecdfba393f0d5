package fleet

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/regions"
	"repro/internal/sim"
)

// runWindow is OpenRunStats with the frontier's lookahead window set to
// look: it loads the run, overrides the window and runs it to Close.
func runWindow(cfg OpenConfig, look int) (*OpenResult, error) {
	ol, err := loadOpen(&cfg)
	if err != nil {
		return nil, err
	}
	ol.f.look = look
	return ol.Close()
}

// TestOpenTinyRingBackpressureMatchesSpec pins completion bursts at
// full concurrency: every arrival lands at t = 0, streams are short,
// and 2 to 16 workers publish finished slots faster than the frontier
// retires them, yet results must stay byte-identical to the serial spec
// at every worker count.
func TestOpenTinyRingBackpressureMatchesSpec(t *testing.T) {
	const n = 36
	streams := skewedStreams(t, n, 71)
	times, err := arrivals.Fixed{}.Times(n) // all at t=0: maximal concurrency
	if err != nil {
		t.Fatal(err)
	}
	base := OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 12, Queue: -1}}
	ref, err := OpenRunStatsSerial(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ workers, batch int }{{2, 1}, {4, 2}, {8, 1}, {16, 1}} {
		cfg := base
		cfg.Workers, cfg.BatchCycles = shape.workers, shape.batch
		got, err := OpenRunStats(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", shape.workers, err)
		}
		compareOpen(t, "tiny-ring", ref, got)
	}
}

// TestOpenCheckpointDrainsFullRings pins the quiesce contract: a
// worker can publish a completion right before it parks for a quiesce,
// so a checkpoint at every boundary must harvest every published
// completion before it captures — a capture holding a completed but
// unretired slot would resume that stream a second time. Every capture
// is resumed across shapes and compared to the uninterrupted serial
// spec.
func TestOpenCheckpointDrainsFullRings(t *testing.T) {
	const n = 24
	streams := skewedStreams(t, n, 73)
	times := burstyTimes(t, n, 29)
	base := OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 8, Queue: -1}}
	ref, err := OpenRunStatsSerial(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers, cfg.BatchCycles = 8, 1
	var caps []*OpenCapture
	got, err := OpenRunStatsCheckpointed(cfg, nil, 1, func(c *OpenCapture) error {
		caps = append(caps, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	compareOpen(t, "checkpointed tiny-ring run", ref, got)
	if len(caps) == 0 {
		t.Fatal("no checkpoint boundaries hit")
	}
	shapes := []struct{ workers, batch int }{{1, 0}, {4, 1}, {8, 2}}
	for i, c := range caps {
		shape := shapes[i%len(shapes)]
		rcfg := base
		rcfg.Workers, rcfg.BatchCycles = shape.workers, shape.batch
		res, err := OpenRunStatsCheckpointed(rcfg, c, 0, nil)
		if err != nil {
			t.Fatalf("resume at boundary %d (events=%d): %v", i, c.Events, err)
		}
		compareOpen(t, "tiny-ring resume", ref, res)
	}
}

// TestOpenLookaheadWindowEquivalence is the lookahead determinism
// property: the window batches only the executor wake, never the
// admission decisions, so every (workers, lookahead) pair — window 1
// being the pre-lookahead publish-per-event behaviour — must reproduce
// the serial spec byte for byte.
func TestOpenLookaheadWindowEquivalence(t *testing.T) {
	const n = 36
	streams := skewedStreams(t, n, 79)
	for model, times := range openProcesses(t, n) {
		base := OpenConfig{Streams: streams, Arrivals: times, Admit: CapK{K: 4, Queue: -1}}
		ref, err := OpenRunStatsSerial(base)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		for _, look := range []int{1, 2, 3, lookahead, 1 << 20} {
			for _, workers := range []int{1, 2, 8} {
				cfg := base
				cfg.Workers = workers
				got, err := runWindow(cfg, look)
				if err != nil {
					t.Fatalf("%s lookahead=%d workers=%d: %v", model, look, workers, err)
				}
				compareOpen(t, model+"/lookahead", ref, got)
			}
		}
	}
}

// TestOpenWorkerExtremesStress covers the pool-shape extremes the
// range claim and the completion hand-off must both survive (run under
// -race in CI): workers ≫ streams (most workers own an empty range
// and live off steals and parks) and streams ≫ workers (every worker
// hands back many completions). Both compare to the serial spec.
func TestOpenWorkerExtremesStress(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		workers int
		look    int
	}{
		{"workers-over-streams", 4, 16, 1},
		{"streams-over-workers", 96, 2, lookahead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streams := skewedStreams(t, tc.n, 83)
			times, err := arrivals.Poisson{MeanGap: 2 * core.Millisecond, Seed: 37}.Times(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			base := OpenConfig{Streams: streams, Arrivals: times, Admit: AdmitAll{}}
			ref, err := OpenRunStatsSerial(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Workers, cfg.BatchCycles = tc.workers, 1
			for round := 0; round < 3; round++ {
				got, err := runWindow(cfg, tc.look)
				if err != nil {
					t.Fatal(err)
				}
				compareOpen(t, tc.name, ref, got)
			}
		})
	}
}

// TestOpenDrainNoLostWakeup is the regression test for a lost wakeup in
// the frontier's blocking drain: with the ring check made outside the
// mutex, a worker's push and its comp.Signal could both land between
// that check and the wait, and the frontier slept forever. The shape
// that hit it is a serving load — thousands of short streams arriving
// faster than they finish under cap-K admission with a backlog, so the
// frontier blocks on a completion over and over while two workers
// publish. Each run goes under a watchdog, so a hang fails the test with
// every goroutine's stack instead of stalling the suite. The loop stops
// after maxRuns runs or after budget of wall-clock time, whichever
// comes first; the budget only binds under -race.
func TestOpenDrainNoLostWakeup(t *testing.T) {
	const (
		n        = 2000
		maxRuns  = 400
		budget   = 4 * time.Second
		watchdog = 10 * time.Second
	)
	sys := core.RandomSystem(rand.New(rand.NewSource(61)), core.RandomSystemConfig{Actions: 20})
	mgr := regions.NewSymbolicManager(regions.BuildTDTable(sys))
	streams := make([]Stream, n)
	for k := range streams {
		streams[k] = Stream{
			Name: "serve",
			Runner: sim.Runner{
				Sys:    sys,
				Mgr:    mgr,
				Exec:   sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: DeriveSeed(61, k)},
				Cycles: 1 + k%4,
			},
		}
	}
	start := time.Now()
	runs := 0
	for ; runs < maxRuns && time.Since(start) < budget; runs++ {
		times, err := arrivals.Poisson{MeanGap: sys.LastDeadline() / 3, Seed: DeriveSeed(67, runs)}.Times(n)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := OpenRunStats(OpenConfig{Streams: streams, Arrivals: times,
				Admit: CapK{K: 8, Queue: 16}, Workers: 2})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(watchdog):
			buf := make([]byte, 1<<20)
			t.Fatalf("run %d did not finish within %v: the frontier lost a completion wakeup\n%s",
				runs, watchdog, buf[:runtime.Stack(buf, true)])
		}
	}
	t.Logf("%d runs in %v", runs, time.Since(start).Round(time.Millisecond))
}
