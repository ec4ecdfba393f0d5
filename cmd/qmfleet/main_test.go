package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/fleet"
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
