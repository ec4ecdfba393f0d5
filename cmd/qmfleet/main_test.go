package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestBuildProcess maps -arrivals/-rate/-burst/-seed to arrival
// processes against a 40 ms reference period, and rejects every spec
// that cannot be honoured.
func TestBuildProcess(t *testing.T) {
	const period = 40 * core.Millisecond
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		name        string
		spec        string
		rate, burst float64
		seed        uint64
		noPeriod    bool // the reference stream has neither a period nor a system
		want        arrivals.Process
		wantErr     string
	}{
		{name: "fixed", spec: "fixed", rate: 1, burst: 4, seed: 7,
			want: arrivals.Fixed{Period: period}},
		{name: "fixed rate rounds the gap", spec: "fixed", rate: 3, burst: 4, seed: 7,
			want: arrivals.Fixed{Period: 13333333}},
		{name: "poisson", spec: "poisson", rate: 2, burst: 4, seed: 7,
			want: arrivals.Poisson{MeanGap: period / 2, Seed: sim.Mix64(7 ^ 0xA5A5A5A5)}},
		{name: "poisson other seed", spec: "poisson", rate: 2, burst: 4, seed: 8,
			want: arrivals.Poisson{MeanGap: period / 2, Seed: sim.Mix64(8 ^ 0xA5A5A5A5)}},
		{name: "bursty", spec: "bursty", rate: 1, burst: 4, seed: 7,
			want: arrivals.Bursty{GapOn: period / 4, MeanOn: 4 * period, MeanOff: 12 * period, Seed: sim.Mix64(7 ^ 0x5A5A5A5A)}},
		{name: "bursty other seed", spec: "bursty", rate: 1, burst: 4, seed: 8,
			want: arrivals.Bursty{GapOn: period / 4, MeanOn: 4 * period, MeanOff: 12 * period, Seed: sim.Mix64(8 ^ 0x5A5A5A5A)}},
		{name: "rate above one arrival per tick", spec: "poisson", rate: 1e9, burst: 4, seed: 7,
			wantErr: "more than one arrival per tick"},
		{name: "bursty with burst 1", spec: "bursty", rate: 1, burst: 1, seed: 7,
			wantErr: "needs -burst > 1"},
		{name: "bursty with burst below 1", spec: "bursty", rate: 1, burst: 0.5, seed: 7,
			wantErr: "needs -burst > 1"},
		{name: "bursty peak gap below one tick", spec: "bursty", rate: 2e7, burst: 5, seed: 7,
			wantErr: "more than one peak arrival per tick"},
		{name: "off dwell rounds below one tick", spec: "bursty", rate: 1, burst: 1 + 1e-12, seed: 7,
			wantErr: "off dwell rounds below one tick"},
		{name: "mean gap beyond the time range", spec: "poisson", rate: 1e-12, burst: 4, seed: 7,
			wantErr: "use a larger rate"},
		{name: "off dwell beyond the time range", spec: "bursty", rate: 1e-8, burst: 1e12, seed: 7,
			wantErr: "use a smaller burst"},
		{name: "trace file missing", spec: "trace:" + missing, rate: 1, burst: 4, seed: 7,
			wantErr: "no such file"},
		{name: "unknown spec", spec: "uniform", rate: 1, burst: 4, seed: 7,
			wantErr: `unknown -arrivals "uniform"`},
		{name: "no reference period", spec: "fixed", rate: 1, burst: 4, seed: 7, noPeriod: true,
			wantErr: "cannot derive a reference period"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := period
			if tc.noPeriod {
				p = 0
			}
			cfg := &fleet.OpenConfig{Streams: []fleet.Stream{{Name: "ref", Runner: sim.Runner{Period: p}}}}
			got, err := buildProcess(tc.spec, cfg, tc.rate, tc.burst, tc.seed)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("buildProcess(%q) = %v, %v; want an error containing %q", tc.spec, got, err, tc.wantErr)
				}
				if strings.HasPrefix(tc.spec, "trace:") && !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("missing trace file: error %v is not fs.ErrNotExist", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("buildProcess(%q) = %#v, want %#v", tc.spec, got, tc.want)
			}
		})
	}
}

// TestCheckpointDirRefusedWithoutResume: a run that does not resume must
// not adopt or overwrite another run's checkpoints, so it refuses a
// directory that holds a checkpoint log, naming the directory and the
// way out; with -resume the same directory continues to the same
// result.
func TestCheckpointDirRefusedWithoutResume(t *testing.T) {
	sys := core.RandomSystem(rand.New(rand.NewSource(5)), core.RandomSystemConfig{Actions: 12, DeadlineEvery: 3})
	var cfg fleet.OpenConfig
	for k := 0; k < 10; k++ {
		cfg.Streams = append(cfg.Streams, fleet.Stream{Name: fmt.Sprintf("s%d", k), Runner: sim.Runner{
			Sys: sys, Mgr: core.NewNumericManager(sys), Exec: sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: uint64(k)},
			Overhead: sim.IPodOverhead, Cycles: 2,
		}})
		cfg.Arrivals = append(cfg.Arrivals, core.Time(k)*5*core.Millisecond)
	}
	cfg.Admit, cfg.Workers = fleet.CapK{K: 2, Queue: -1}, 1
	doc := &metrics.FleetDoc{Label: "t", Streams: 10, Cycles: 2, Arrivals: "fixed", Admission: cfg.Admit.Name()}
	dir := filepath.Join(t.TempDir(), "ck")

	first, err := runCheckpointed(cfg, dir, 2, false, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCheckpointed(cfg, dir, 2, false, doc, nil); err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("a fresh run over a used directory: %v, want an error naming it and -resume", err)
	}
	again, err := runCheckpointed(cfg, dir, 2, true, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.OpenObservations, again.OpenObservations) {
		t.Fatal("the resumed run's lifecycles differ from the first run's")
	}
}

// TestTraceRowPastTimeInfNamesFileAndLine: an arrival trace row at or
// past the end of simulated time fails while the trace is read, with
// an error that names the file and the row's line.
func TestTraceRowPastTimeInfNamesFileAndLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.csv")
	if err := os.WriteFile(path, []byte("0\n3000000000000000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &fleet.OpenConfig{Streams: []fleet.Stream{{Name: "ref", Runner: sim.Runner{Period: core.Millisecond}}}}
	_, err := buildProcess("trace:"+path, cfg, 1, 4, 7)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("buildProcess over a past-the-end row = %v, want an error naming %s and line 2", err, path)
	}
}
