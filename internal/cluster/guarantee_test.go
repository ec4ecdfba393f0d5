package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestClusterWorstCaseNoMisses is the paper's guarantee behind the
// router: streams built from bundles that went through WriteTo and Load,
// run under worst-case execution with free overhead, miss no deadline
// under any routing policy, for either manager.
func TestClusterWorstCaseNoMisses(t *testing.T) {
	const n = 36
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	var bundles []*controller.Bundle
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
		bundles = append(bundles, b)
	}
	times, err := arrivals.Poisson{MeanGap: 10 * core.Millisecond, Seed: 4}.Times(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, manager := range []string{"symbolic", "relaxed"} {
		opt := fleet.Options{Manager: manager, Cycles: 3, Overhead: sim.FreeOverhead}
		streams := make([]fleet.Stream, n)
		for k := range streams {
			b := bundles[k%len(bundles)]
			s, err := fleet.BundleStream(b, fmt.Sprintf("%s-%d", b.Spec().Name, k), fleet.DeriveSeed(5, k), opt)
			if err != nil {
				t.Fatal(err)
			}
			s.Runner.Exec = sim.WorstCase{Sys: b.System()}
			streams[k] = s
		}
		for _, pol := range []Policy{RoundRobin{}, LeastBacklog{}, UtilizationWeighted{}, Affinity{}} {
			label := manager + "/" + pol.Name()
			res, err := Run(Config{Streams: streams, Arrivals: times, Instances: 3,
				Route: pol, Admit: fleet.CapK{K: 2, Queue: 3}, Workers: 2, Seed: 9})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := res.FleetResult().Err(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			deadlines := 0
			for _, s := range res.FleetResult().Streams {
				if s.Stats.Misses != 0 {
					t.Fatalf("%s: stream %q missed %d of %d deadlines", label, s.Name, s.Stats.Misses, s.Stats.DeadlineRecords)
				}
				deadlines += s.Stats.DeadlineRecords
			}
			if deadlines == 0 {
				t.Fatalf("%s: no deadline ran", label)
			}
		}
	}
}
