package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workloads"
)

// writeBundle compiles the catalog's sdr-pipeline system with the
// relaxation set rho and writes the bundle to path. Every rho gives the
// same system, so the bundles differ only in their relaxation tables.
func writeBundle(t testing.TB, path string, rho []int) *controller.Bundle {
	t.Helper()
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	b, err := controller.Compile(controller.SpecFromSystem("sdr", cat["sdr-pipeline"], rho))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteAtomic(path, func(w io.Writer) error {
		_, err := b.WriteTo(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeRejectsIncoherentMeta: a snapshot that passes the CRC and
// the fingerprint check but whose bundle metadata cannot index the
// activation list must fail the resume with an error naming the
// snapshot, not panic. The bundle it names is retained and the event
// file holds an arrival, so a resume that skipped the check would reach
// the index.
func TestResumeRejectsIncoherentMeta(t *testing.T) {
	src := t.TempDir()
	bundlePath := filepath.Join(src, "bundle.json")
	writeBundle(t, bundlePath, []int{1})
	events := filepath.Join(src, "events.ndjson")
	if err := os.WriteFile(events, []byte(`{"op":"arrive","name":"s0","at":0,"cycles":1,"seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		meta func(h uint64) checkpoint.Meta
	}{
		{"no bundle hashes", func(uint64) checkpoint.Meta { return checkpoint.Meta{} }},
		{"negative stream bundle", func(h uint64) checkpoint.Meta {
			return checkpoint.Meta{ArrivalCursor: 1, BundleHashes: []uint64{h}, StreamBundle: []int32{-1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := &daemon{
				stateDir: dir,
				store:    &checkpoint.Store{Dir: dir},
				fp:       "qmfleetd-test",
				bundles:  map[uint64]*controller.Bundle{},
			}
			_, h, err := d.loadBundle(bundlePath)
			if err != nil {
				t.Fatal(err)
			}
			meta := tc.meta(h)
			meta.Fingerprint = d.fp
			path, err := d.store.Save(&checkpoint.Snapshot{Meta: meta, Capture: &fleet.OpenCapture{Events: 1}})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(events)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			err = d.tryResume(newEventScanner(f))
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("tryResume = %v, want an error naming %s", err, path)
			}
		})
	}
}

// TestResumeRejectsV1StateDir: bundle format v2 replaced v1, whose
// files carried their tables, so a state directory written by an older
// build retains v1 bundles. Resuming it must fail with the loader's
// error naming the version and qmcompile, not start fresh or panic.
func TestResumeRejectsV1StateDir(t *testing.T) {
	src := t.TempDir()
	bundlePath := filepath.Join(src, "bundle.json")
	b := writeBundle(t, bundlePath, []int{1})
	events := filepath.Join(src, "events.ndjson")
	if err := os.WriteFile(events, []byte(`{"op":"arrive","name":"s0","at":0,"cycles":1,"seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fresh := func() *daemon {
		return &daemon{
			stateDir: dir,
			store:    &checkpoint.Store{Dir: dir},
			fp:       "qmfleetd-test",
			bundles:  map[uint64]*controller.Bundle{},
		}
	}
	d := fresh()
	_, h, err := d.loadBundle(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.store.Save(&checkpoint.Snapshot{
		Meta:    checkpoint.Meta{Fingerprint: d.fp, BundleHashes: []uint64{h}},
		Capture: &fleet.OpenCapture{},
	}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the retained copy as an older build wrote it: the spec
	// beside its tables, with no format field.
	v1, err := json.Marshal(map[string]any{"spec": b.Spec(), "tables": map[string]any{}, "relax": map[string]any{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.bundleFile(h), v1, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = fresh().tryResume(newEventScanner(f))
	if err == nil || !strings.Contains(err.Error(), "format v1") || !strings.Contains(err.Error(), "qmcompile") {
		t.Fatalf("tryResume over a v1 state directory = %v, want the bundle version error", err)
	}
}

// drillConfig writes a small serving input and returns the daemon
// configuration that serves it and the event file's line count. The
// event file holds 14 arrivals, dense enough that cap-2 admission
// delays and sheds, a swap to a new bundle after the fifth arrival and
// a swap to a byte-identical copy of that bundle after the tenth.
func drillConfig(t *testing.T) (config, int) {
	t.Helper()
	dir := t.TempDir()
	boot := writeBundle(t, filepath.Join(dir, "boot.json"), []int{1})
	writeBundle(t, filepath.Join(dir, "next.json"), []int{1, 2})
	writeBundle(t, filepath.Join(dir, "next-copy.json"), []int{1, 2})
	cfg := config{
		bundle: filepath.Join(dir, "boot.json"), events: filepath.Join(dir, "events.ndjson"),
		manager: "relaxed", admit: fleet.CapK{K: 2, Queue: 3}, workers: 1, noise: 0.3,
	}
	gap := boot.System().LastDeadline() / 3
	var lines []string
	var at core.Time
	for k := 0; k < 14; k++ {
		at += core.Time(k*k%3) * gap // gaps of 0, 1 and 2: some arrivals coincide
		lines = append(lines, fmt.Sprintf(`{"op":"arrive","name":"s%d","at":%d,"cycles":%d,"seed":%d}`,
			k, at, 1+k%4, 100+k))
		switch k {
		case 4:
			lines = append(lines, `{"op":"swap","bundle":"`+filepath.Join(dir, "next.json")+`"}`)
		case 9:
			lines = append(lines, `{"op":"swap","bundle":"`+filepath.Join(dir, "next-copy.json")+`"}`)
		}
	}
	if err := os.WriteFile(cfg.events, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfg, len(lines)
}

// serveOnce runs one daemon over cfg's event file as main does: build,
// resume if asked, serve, then report. It returns how serve ended and,
// for a run that drained its input, the sealed result, the printed
// report and the JSON document with its scheduler-shape fields
// (workers, batch_cycles) removed.
func serveOnce(t *testing.T, cfg config, resume bool, every int64, killAfter int) (end int, res *fleet.OpenResult, out, doc string) {
	t.Helper()
	cfg.resume = resume
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(cfg.events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := newEventScanner(f)
	if resume {
		if err := d.tryResume(sc); err != nil {
			t.Fatal(err)
		}
	}
	end, err = d.serve(sc, every, killAfter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if end != drained {
		d.live.Abort()
		return end, nil, "", ""
	}
	res, err = d.live.Close()
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	if err := d.report(&buf, res, jsonPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, `"workers":`) && !strings.Contains(line, `"batch_cycles":`) {
			kept = append(kept, line)
		}
	}
	return end, res, buf.String(), strings.Join(kept, "\n")
}

// checkNoMisses asserts the paper's guarantee on a drained run: the
// served streams ran deadlines and missed none of them.
func checkNoMisses(t *testing.T, label string, res *fleet.OpenResult) {
	t.Helper()
	misses, deadlines := 0, 0
	for _, s := range res.FleetResult().Streams {
		misses += s.Stats.Misses
		deadlines += s.Stats.DeadlineRecords
	}
	if misses != 0 || deadlines == 0 {
		t.Fatalf("%s: missed %d of %d deadlines, want 0 of at least 1", label, misses, deadlines)
	}
}

// TestKillResumeAtEveryBoundary is the crash-safety property of the
// daemon: killed after any input line (checkpointing first, as
// -kill-after does) and resumed at another worker count and batch, it
// prints the same report and writes the same JSON document as a run
// that was never interrupted — swap count included, whether the kill
// fell before, between or after the two swaps. Both runs also keep the
// paper's guarantee under the daemon's own models (sim.Content with
// noise, sim.IPodOverhead): no deadline is missed, including by the
// streams admitted after each swap.
func TestKillResumeAtEveryBoundary(t *testing.T) {
	cfg, lines := drillConfig(t)
	end, res, want, wantDoc := serveOnce(t, cfg, false, 3, 0)
	if end != drained {
		t.Fatalf("uninterrupted run ended with %d", end)
	}
	checkNoMisses(t, "uninterrupted run", res)
	if !strings.Contains(want, fmt.Sprintf("served              %d events → 14 streams (2 swaps)", lines)) {
		t.Fatalf("uninterrupted report does not count every event and both swaps:\n%s", want)
	}
	for k := 1; k <= lines; k++ {
		victim := cfg
		victim.state = filepath.Join(t.TempDir(), "state")
		if end, _, _, _ := serveOnce(t, victim, false, 3, k); end != killed {
			t.Fatalf("kill after line %d: serve ended with %d, want killed", k, end)
		}
		heir := victim
		heir.workers, heir.batch = 4, 1
		_, res, got, gotDoc := serveOnce(t, heir, true, 3, 0)
		checkNoMisses(t, fmt.Sprintf("kill after line %d", k), res)
		if got != want {
			t.Errorf("kill after line %d: resumed report\n%s\nwant\n%s", k, got, want)
		}
		if gotDoc != wantDoc {
			t.Errorf("kill after line %d: resumed JSON\n%s\nwant\n%s", k, gotDoc, wantDoc)
		}
	}
}

// TestFailedSnapshotIsReportedAndRetried: a snapshot write that fails —
// here because the state directory is gone — is published as the last
// checkpoint error while the daemon keeps serving. It re-arms the
// interval, so once the directory is back the next event writes a
// durable snapshot that clears the error and advances the last
// checkpoint. A killed serve returns only once its snapshot is durable:
// the newest one records the kill line as its ingest cursor.
func TestFailedSnapshotIsReportedAndRetried(t *testing.T) {
	cfg, _ := drillConfig(t)
	cfg.state = filepath.Join(t.TempDir(), "state")
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	// serveTo serves the lines after those already ingested up to line
	// to, checkpointing at every engine event.
	serveTo := func(to, killAfter int) int {
		t.Helper()
		sc := newEventScanner(strings.NewReader(strings.Join(lines[d.ingested:to], "\n")))
		end, err := d.serve(sc, 1, killAfter, nil)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}

	serveTo(3, 0)
	healthy := d.obs.Load()
	if healthy.LastCheckpoint == 0 || healthy.LastCheckpointError != "" {
		t.Fatalf("after 3 lines: %+v, want a durable snapshot", healthy)
	}

	if err := os.RemoveAll(cfg.state); err != nil {
		t.Fatal(err)
	}
	serveTo(5, 0)
	failed := d.obs.Load()
	if failed.LastCheckpointError == "" || failed.LastCheckpoint != healthy.LastCheckpoint {
		t.Fatalf("snapshots into a removed state directory: %+v, want an error and last checkpoint %d",
			failed, healthy.LastCheckpoint)
	}

	if err := os.Mkdir(cfg.state, 0o755); err != nil {
		t.Fatal(err)
	}
	// Line 6 is a swap, which processes no engine event: only the
	// interval the failure re-armed checkpoints here.
	serveTo(6, 0)
	retried := d.obs.Load()
	if retried.LastCheckpointError != "" || retried.LastCheckpoint <= healthy.LastCheckpoint {
		t.Fatalf("after the directory is back: %+v, want no error and a checkpoint past %d",
			retried, healthy.LastCheckpoint)
	}

	const killLine = 10
	if end := serveTo(len(lines), killLine); end != killed {
		t.Fatalf("serve ended with %d, want killed", end)
	}
	d.live.Abort()
	snap, path, err := d.store.LoadLatest(d.fp)
	if err != nil || snap == nil || snap.Meta.ArrivalCursor != killLine {
		t.Fatalf("after the kill: newest snapshot %s (err %v) does not record line %d", path, err, killLine)
	}
}

// TestUnknownManagerFailsAtStartup: a manager name fleet cannot build
// fails the daemon before it writes any state, not at the first
// arrival.
func TestUnknownManagerFailsAtStartup(t *testing.T) {
	cfg, _ := drillConfig(t)
	cfg.manager = "bogus"
	cfg.state = filepath.Join(t.TempDir(), "state")
	if _, err := newDaemon(cfg); err == nil || !strings.Contains(err.Error(), `unknown manager "bogus"`) {
		t.Fatalf("newDaemon = %v, want an unknown-manager error", err)
	}
	if _, err := os.Stat(cfg.state); !os.IsNotExist(err) {
		t.Fatalf("state directory exists after a failed start (stat: %v)", err)
	}
}

// TestNoiseOutOfRangeFailsAtStartup: a -noise that is not finite or
// lies outside [0, 1] fails the daemon before it writes any state, with
// an error that names the flag; the range's ends start it.
func TestNoiseOutOfRangeFailsAtStartup(t *testing.T) {
	for _, noise := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5, 1e300} {
		cfg, _ := drillConfig(t)
		cfg.noise = noise
		cfg.state = filepath.Join(t.TempDir(), "state")
		if _, err := newDaemon(cfg); err == nil || !strings.Contains(err.Error(), "-noise") {
			t.Fatalf("noise %v: newDaemon = %v, want an error naming -noise", noise, err)
		}
		if _, err := os.Stat(cfg.state); !os.IsNotExist(err) {
			t.Fatalf("noise %v: state directory exists after a failed start (stat: %v)", noise, err)
		}
	}
	for _, noise := range []float64{0, 1} {
		cfg, _ := drillConfig(t)
		cfg.noise = noise
		d, err := newDaemon(cfg)
		if err != nil {
			t.Fatalf("noise %v: %v", noise, err)
		}
		d.live.Abort()
	}
}

// FuzzEventDecode: the NDJSON event decoder never panics, every line it
// accepts encodes and decodes back to the same event, and an accepted
// arrival either builds a stream matching it against a fixed bundle or
// returns an error.
func FuzzEventDecode(f *testing.F) {
	for _, line := range []string{
		`{"op":"arrive","name":"s0","at":0,"cycles":1,"seed":1000}`,
		`{"op":"arrive","name":"s17","at":153000000,"cycles":4,"seed":1017}`,
		`{"op":"swap","bundle":"bundle.json"}`,
		`{"op":"arrive","name":"s1","at":9000000,"cycles":0,"seed":1001}`,
		`{"op":"arrive","name":"s2","at":-1,"cycles":-3}`,
		`{"op":"leave","name":"s0"}`,
		`{"op":"arrive","cycles":"8"}`,
		`{"op":"arrive",`,
		`null`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(line))
	}
	bundle := filepath.Join(f.TempDir(), "bundle.json")
	writeBundle(f, bundle, []int{1})
	d, err := newDaemon(config{bundle: bundle, manager: "relaxed", admit: fleet.AdmitAll{}, workers: 1, noise: 0.3})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ev, err := decodeEvent(raw)
		if err != nil {
			return
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode %+v: %v", raw, ev, err)
		}
		if back, err := decodeEvent(enc); err != nil || back != ev {
			t.Fatalf("%q decodes to %+v, which encodes as %s and decodes to %+v (%v)", raw, ev, enc, back, err)
		}
		if ev.Op != "arrive" {
			return
		}
		s, err := d.stream(d.active, ev)
		if err != nil {
			return
		}
		if s.Name != ev.Name || s.Cycles != ev.Cycles || s.Runner.Validate() != nil {
			t.Fatalf("arrival %+v built stream %q with %d cycles (validate: %v)", ev, s.Name, s.Cycles, s.Runner.Validate())
		}
	})
}

// TestFreshRunRefusesUsedStateDir: a run without -resume must not adopt
// another run's checkpoints, so it refuses a state directory that holds
// a checkpoint log, naming the directory and the way out, before it
// writes anything. With -resume and no usable record in the log, the
// run starts a new log, which a later resume then continues.
func TestFreshRunRefusesUsedStateDir(t *testing.T) {
	cfg, _ := drillConfig(t)
	cfg.state = filepath.Join(t.TempDir(), "state")
	if end, _, _, _ := serveOnce(t, cfg, false, 3, 6); end != killed {
		t.Fatalf("first run ended with %d, want killed", end)
	}
	_, err := newDaemon(cfg)
	if err == nil || !strings.Contains(err.Error(), cfg.state) || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("a fresh run over a used state directory: %v, want an error naming it and -resume", err)
	}

	// A log with no whole record is no checkpoint to resume from: the
	// resumed run starts over and writes a new log in its place.
	log := filepath.Join(cfg.state, "checkpoint.log")
	if err := os.WriteFile(log, []byte("not a checkpoint log"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := drillReport(t, cfg)
	if end, _, got, _ := serveOnce(t, cfg, true, 3, 0); end != drained || got != want {
		t.Fatalf("resume over an unusable log ended with %d and report\n%s\nwant\n%s", end, got, want)
	}
	if _, _, got, _ := serveOnce(t, cfg, true, 3, 0); got != want {
		t.Fatalf("resume of the new log: report\n%s\nwant\n%s", got, want)
	}
}

// drillReport serves cfg's event file without checkpoints and returns
// the printed report and the JSON document.
func drillReport(t *testing.T, cfg config) (string, string) {
	t.Helper()
	cfg.state = ""
	_, _, out, doc := serveOnce(t, cfg, false, 3, 0)
	return out, doc
}

// TestResumeRejectsV1Snapshots: a state directory written before the
// checkpoint log holds snapshot files of format version 1. Resuming it
// must fail with an error naming the version, not start fresh over it.
func TestResumeRejectsV1Snapshots(t *testing.T) {
	cfg, _ := drillConfig(t)
	cfg.state = t.TempDir()
	if err := os.WriteFile(filepath.Join(cfg.state, "snap-00000000000000000012.ckpt"), []byte("QMFCKPT\x00\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.live.Abort()
	f, err := os.Open(cfg.events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.tryResume(newEventScanner(f)); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("tryResume over version-1 snapshots = %v, want an error naming format version 1", err)
	}
}
