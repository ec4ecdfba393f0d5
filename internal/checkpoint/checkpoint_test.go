package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testConfig builds a small open-fleet run with interleaving
// admissions, backlog and departures: random systems of three distinct
// shapes, skewed stream lengths, bursty arrivals, a capacity-capped
// admitter with a queue.
func testConfig(t testing.TB, n int, seed uint64) fleet.OpenConfig {
	t.Helper()
	var systems []*core.System
	for i := 0; i < 3; i++ {
		systems = append(systems, core.RandomSystem(
			rand.New(rand.NewSource(int64(seed)+int64(i))),
			core.RandomSystemConfig{Actions: 10 + 4*i, DeadlineEvery: 3}))
	}
	streams := make([]fleet.Stream, n)
	for k := range streams {
		sys := systems[k%len(systems)]
		streams[k] = fleet.Stream{
			Name: fmt.Sprintf("s%02d", k),
			Runner: sim.Runner{
				Sys:      sys,
				Mgr:      core.NewNumericManager(sys),
				Exec:     sim.Content{Sys: sys, NoiseAmp: 0.3, Seed: fleet.DeriveSeed(seed, k)},
				Overhead: sim.IPodOverhead,
				Cycles:   1 + (k*5)%7,
			},
		}
	}
	times, err := arrivals.Bursty{GapOn: 5 * core.Millisecond, MeanOn: 20 * core.Millisecond,
		MeanOff: 60 * core.Millisecond, Seed: seed + 7}.Times(n)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.OpenConfig{Streams: streams, Arrivals: times, Admit: fleet.CapK{K: 3, Queue: -1}}
}

// captureMidRun runs the config at workers=1 checkpointing every
// `every` boundaries and returns a capture from the middle of the run
// (one with both finished and live streams when the run allows it).
func captureMidRun(t testing.TB, cfg fleet.OpenConfig, every int64) *fleet.OpenCapture {
	t.Helper()
	c1 := cfg
	c1.Workers = 1
	var caps []*fleet.OpenCapture
	if _, err := fleet.OpenRunStatsCheckpointed(c1, nil, every, func(c *fleet.OpenCapture) error {
		caps = append(caps, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(caps) == 0 {
		t.Fatal("run hit no checkpoint boundaries")
	}
	return caps[len(caps)/2]
}

func compareResults(t *testing.T, label string, want, got *fleet.OpenResult) {
	t.Helper()
	if !reflect.DeepEqual(want.OpenObservations, got.OpenObservations) {
		t.Fatalf("%s: lifecycles or backlog diverged", label)
	}
	if want.Admitted != got.Admitted || want.Delayed != got.Delayed || want.Shed != got.Shed {
		t.Fatalf("%s: admission counts diverged", label)
	}
	if !reflect.DeepEqual(want.Streams, got.Streams) {
		t.Fatalf("%s: stream results diverged", label)
	}
}

// copyCapture returns what c holds, with its closed streams copied out
// of the run that took it, so it compares with a decoded capture.
func copyCapture(c *fleet.OpenCapture) *fleet.OpenCapture {
	out := &fleet.OpenCapture{
		Events: c.Events, Streams: c.Streams, NextArrival: c.NextArrival,
		InService: c.InService, CPULoad: c.CPULoad,
		FirstArrival: c.FirstArrival, LastT: c.LastT, LastDep: c.LastDep,
		BacklogIntegral: c.BacklogIntegral, MaxBacklog: c.MaxBacklog,
		Backlog: c.Backlog, Departures: c.Departures, Live: c.Live,
	}
	for i := 0; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		cs.Sink.QualityHist = append([]int(nil), cs.Sink.QualityHist...)
		out.Closed = append(out.Closed, cs)
	}
	return out
}

// TestSnapshotRoundTrip: Encode then Decode reproduces the snapshot
// exactly — every cursor, accumulator and histogram, bit-for-bit — and
// the decoded capture resumes to the same result as the in-memory one.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig(t, 18, 31)
	ref, err := fleet.OpenRunStatsSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := captureMidRun(t, cfg, 3)
	snap := &Snapshot{
		Meta: Meta{
			Fingerprint:   Fingerprint("demo", "cap3"),
			ArrivalCursor: cap.NextArrival,
			BundleHashes:  []uint64{0xDEADBEEF, 42},
			StreamBundle:  []int32{0, 1, 0},
		},
		Capture: cap,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{Meta: snap.Meta, Capture: copyCapture(cap)}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded snapshot differs from the encoded one:\n%+v\n%+v", want, got)
	}

	rcfg := cfg
	rcfg.Workers, rcfg.BatchCycles = 2, 1
	res, err := fleet.OpenRunStatsCheckpointed(rcfg, got.Capture, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "resume from decoded snapshot", ref, res)
}

// TestEncodeRejectsRetainedRecords: snapshots cover the stats path
// only; a capture smuggling retained records is a caller bug and must
// be an error, not silent data loss.
func TestEncodeRejectsRetainedRecords(t *testing.T) {
	withRecords := []sim.Record{{}}
	live := captureMidRun(t, testConfig(t, 12, 33), 3)
	if len(live.Live) == 0 {
		t.Fatal("capture has no live stream to corrupt")
	}
	live.Live[0].Trace.Records = withRecords
	closed := captureMidRun(t, testConfig(t, 12, 33), 3)
	closed.Closed = append(closed.Closed, fleet.ClosedStream{Trace: sim.Trace{Records: withRecords}})
	for _, cap := range []*fleet.OpenCapture{live, closed} {
		if err := Encode(&bytes.Buffer{}, &Snapshot{Capture: cap}); err == nil || !strings.Contains(err.Error(), "records") {
			t.Fatalf("Encode accepted a capture with retained records (err=%v)", err)
		}
	}
}

// TestDecodeRejectsCorruption: every fault the faultPlan can inject —
// torn/truncated writes at any prefix, a single flipped bit anywhere —
// must surface as an error from Decode, never a panic and never a
// silently wrong snapshot.
func TestDecodeRejectsCorruption(t *testing.T) {
	cap := captureMidRun(t, testConfig(t, 14, 37), 4)
	snap := &Snapshot{Meta: Meta{Fingerprint: "f"}, Capture: cap}
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	plan := newFaultPlan(5)
	for i := 0; i < 64; i++ {
		torn := plan.Truncate(whole)
		if _, err := Decode(bytes.NewReader(torn)); err == nil {
			t.Fatalf("Decode accepted a snapshot torn to %d of %d bytes", len(torn), len(whole))
		}
	}
	for i := 0; i < 64; i++ {
		flipped := plan.BitFlip(whole)
		if _, err := Decode(bytes.NewReader(flipped)); err == nil {
			t.Fatal("Decode accepted a snapshot with a flipped bit")
		}
	}
	if _, err := Decode(bytes.NewReader(whole)); err != nil {
		t.Fatalf("pristine snapshot no longer decodes: %v", err)
	}
}

// TestFaultPlanDeterministic: equal seeds give equal fault sequences
// (the property that makes a failing crash test reproducible); distinct
// seeds give distinct ones.
func TestFaultPlanDeterministic(t *testing.T) {
	payload := make([]byte, 256)
	draw := func(seed uint64) []string {
		p := newFaultPlan(seed)
		var out []string
		for i := 0; i < 8; i++ {
			out = append(out,
				fmt.Sprintf("k%d", p.KillEvents(100)),
				fmt.Sprintf("t%d", len(p.Truncate(payload))),
				fmt.Sprintf("b%x", p.BitFlip(payload)[7]))
		}
		return out
	}
	a, b, c := draw(11), draw(11), draw(12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different fault sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same fault sequence")
	}
}

// TestWriteAtomicKeepsOldContentOnError: a failing write must leave the
// previous file byte-identical and no temporary debris behind.
func TestWriteAtomicKeepsOldContentOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	if err := WriteAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half of v"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic swallowed the write error: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v1" {
		t.Fatalf("old content not preserved: %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary debris left behind: %d entries", len(entries))
	}
}

// TestAtomicFileCommitAbort: the streaming form of the same guarantee —
// Commit publishes everything written, Abort leaves the previous
// content untouched with no debris, and double-Commit is an error.
func TestAtomicFileCommitAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.csv")

	a, err := NewAtomicFile(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(a, "row1\n")
	io.WriteString(a, "row2\n")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err == nil {
		t.Fatal("double Commit accepted")
	}
	a.Abort() // no-op after Commit
	if b, _ := os.ReadFile(path); string(b) != "row1\nrow2\n" {
		t.Fatalf("committed content wrong: %q", b)
	}

	b2, err := NewAtomicFile(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(b2, "interrupted")
	b2.Abort()
	if b, _ := os.ReadFile(path); string(b) != "row1\nrow2\n" {
		t.Fatalf("Abort touched the target: %q", b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary debris left behind: %d entries", len(entries))
	}
}

// captures runs cfg at workers=1 and returns its capture at every
// `every` boundaries — successive checkpoints of one run.
func captures(t testing.TB, cfg fleet.OpenConfig, every int64) []*fleet.OpenCapture {
	t.Helper()
	cfg.Workers = 1
	var caps []*fleet.OpenCapture
	if _, err := fleet.OpenRunStatsCheckpointed(cfg, nil, every, func(c *fleet.OpenCapture) error {
		caps = append(caps, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return caps
}

// saveAll saves the captures in order into a store of a fresh directory
// and returns the store, the log's length after each record, and the
// log's bytes. The second bundle activation comes with the second
// record.
func saveAll(t testing.TB, fp string, caps []*fleet.OpenCapture) (*Store, []int64, []byte) {
	t.Helper()
	st := &Store{Dir: t.TempDir()}
	var ends []int64
	for i, c := range caps {
		meta := Meta{Fingerprint: fp, ArrivalCursor: c.NextArrival, BundleHashes: []uint64{7, 9}[:min(i, 1)+1]}
		if _, err := st.Save(&Snapshot{Meta: meta, Capture: c}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(st.Path())
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	raw, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	return st, ends, raw
}

// TestStoreFallback: the store's recovery ladder. A bit flipped in the
// newest record drops that record, and LoadLatest lands on the one
// before, logging the drop; a log of another run (its fingerprint
// differs) and a missing log are fresh starts.
func TestStoreFallback(t *testing.T) {
	caps := captures(t, testConfig(t, 14, 41), 4)[:3]
	st, ends, raw := saveAll(t, "run", caps)
	flipped := append(slices.Clone(raw[:ends[1]]), newFaultPlan(3).BitFlip(raw[ends[1]:])...)
	if err := os.WriteFile(st.Path(), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	st = &Store{Dir: st.Dir, Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }}
	s, path, err := st.LoadLatest("run")
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || path != st.Path() || s.Capture.Events != caps[1].Events {
		t.Fatalf("fallback landed on %q (snap=%v), want the record at %d events", path, s, caps[1].Events)
	}
	if len(logged) != 1 {
		t.Fatalf("expected 1 drop log line, got %d: %v", len(logged), logged)
	}

	if s, path, err := st.LoadLatest("other-run"); s != nil || path != "" || err != nil || len(logged) != 3 {
		t.Fatalf("a log of another run must be a logged fresh start, got %v %q %v (%d lines)", s, path, err, len(logged))
	}
	if s, path, err := (&Store{Dir: t.TempDir()}).LoadLatest("run"); s != nil || path != "" || err != nil {
		t.Fatalf("empty store must be a clean fresh start, got %v %q %v", s, path, err)
	}
}

// TestStoreMetrics: a Store with Met wired counts records written,
// bytes encoded, encode latency observations and LoadLatest fallbacks —
// the counters qmfleetd's /metrics and /healthz read.
func TestStoreMetrics(t *testing.T) {
	caps := captures(t, testConfig(t, 12, 53), 4)[:3]
	reg := obs.NewRegistry("t")
	var clock int64
	met := obs.NewCheckpointMetrics(reg, func() int64 { clock += 1000; return clock })
	st := &Store{Dir: t.TempDir(), Met: met}
	for _, c := range caps {
		if _, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: "f"}, Capture: c}); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.Snapshots.Value(); got != 3 {
		t.Fatalf("snapshots = %d, want 3", got)
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Bytes.Value(); got != fi.Size() {
		t.Fatalf("bytes counter = %d, the log holds %d", got, fi.Size())
	}
	if got := met.Encode.Count(); got != 3 {
		t.Fatalf("encode observations = %d, want 3", got)
	}
	// Tear the newest record: the load must count its drop.
	if err := os.Truncate(st.Path(), fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if s, _, err := st.LoadLatest("f"); err != nil || s == nil || s.Capture.Events != caps[1].Events {
		t.Fatalf("fallback load failed: %v %v", s, err)
	}
	if got := met.Fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestStoreCrashWindows drives every way a log can end short of its
// last Save: torn at every offset of its last record, a bit flipped in
// the last record or in a middle one, and gone. LoadLatest must return
// the newest whole record, or nothing, and never fail; a Save after the
// load cuts the dropped tail off and appends, so the log then folds to
// the saved snapshot. Without a load, a Save starts a new log.
func TestStoreCrashWindows(t *testing.T) {
	caps := captures(t, testConfig(t, 14, 61), 3)
	if len(caps) < 4 {
		t.Fatalf("%d captures, want at least 4", len(caps))
	}
	caps = caps[:4]
	_, ends, raw := saveAll(t, "crash", caps)
	next := caps[3]

	// check loads the log b and expects the record at index want (-1
	// for none), then saves next on the same store and expects the log
	// to fold to it.
	check := func(label string, b []byte, want int) {
		t.Helper()
		st := &Store{Dir: t.TempDir()}
		if b != nil {
			if err := os.WriteFile(st.Path(), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, _, err := st.LoadLatest("crash")
		if err != nil {
			t.Fatalf("%s: LoadLatest failed: %v", label, err)
		}
		switch {
		case want < 0 && s != nil:
			t.Fatalf("%s: loaded a record at %d events from a log with none whole", label, s.Capture.Events)
		case want >= 0 && (s == nil || s.Capture.Events != caps[want].Events || s.Meta.ArrivalCursor != caps[want].NextArrival):
			t.Fatalf("%s: loaded %v, want the record at %d events", label, s, caps[want].Events)
		}
		// The engine would resume from s and checkpoint again; saving the
		// run's own later capture stands in for that.
		if _, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: "crash", ArrivalCursor: next.NextArrival, BundleHashes: []uint64{7, 9}}, Capture: next}); err != nil {
			t.Fatalf("%s: save after the load: %v", label, err)
		}
		got, _, err := (&Store{Dir: st.Dir}).LoadLatest("crash")
		if err != nil || got == nil || !reflect.DeepEqual(got.Capture, copyCapture(next)) {
			t.Fatalf("%s: after the save the log folds to %v (%v), not to the saved capture", label, got, err)
		}
	}

	last := ends[len(ends)-2]
	for cut := last; cut < int64(len(raw)); cut++ {
		check(fmt.Sprintf("torn at byte %d", cut), raw[:cut], 2)
	}
	plan := newFaultPlan(17)
	for i, rec := range []struct {
		from, to int64
		want     int
	}{{last, int64(len(raw)), 2}, {ends[0], ends[1], 0}} {
		for j := 0; j < 16; j++ {
			b := slices.Clone(raw)
			copy(b[rec.from:rec.to], plan.BitFlip(b[rec.from:rec.to]))
			check(fmt.Sprintf("bit flip %d in record %d", j, i), b, rec.want)
		}
	}
	check("missing log", nil, -1)
	check("the first record torn", raw[:ends[0]-1], -1)

	// A store that has not loaded the log replaces it with a new one.
	st := &Store{Dir: t.TempDir()}
	if err := os.WriteFile(st.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: "crash", BundleHashes: []uint64{7}}, Capture: caps[0]}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(st.Path()); err != nil || fi.Size() != ends[0] {
		t.Fatalf("a Save without a load left a log of %v bytes (%v), want a new one of %d", fi.Size(), err, ends[0])
	}
}

// TestLogRecordsTrackChange: a record holds what changed since the
// record before it and the open state, so with streams arriving at a
// steady rate no record grows with the population fed so far, and the
// whole log is about one population's worth of closed streams: close to
// one self-contained snapshot of the end state.
func TestLogRecordsTrackChange(t *testing.T) {
	const n, every = 3000, 250
	cfg := testConfig(t, n, 67)
	live := fleet.NewOpenLive(fleet.OpenLiveConfig{Admit: cfg.Admit, Workers: 1, MaxLevels: 64})
	defer live.Abort()
	st := &Store{Dir: t.TempDir()}
	var sizes []int64
	var end int64
	var last *Snapshot
	for k := range cfg.Streams {
		if err := live.Feed(cfg.Streams[k], core.Time(k)*30*core.Millisecond); err != nil {
			t.Fatal(err)
		}
		if (k+1)%every != 0 {
			continue
		}
		c, err := live.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		last = &Snapshot{Meta: Meta{Fingerprint: "steady", ArrivalCursor: k + 1}, Capture: c}
		if _, err := st.Save(last); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(st.Path())
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size()-end)
		end = fi.Size()
	}
	t.Logf("record sizes at every %d of %d streams: %v", every, n, sizes)
	for i, size := range sizes[1:] {
		if 4*size > 5*sizes[1] || 5*size < 4*sizes[1] {
			t.Fatalf("record %d is %d bytes, record 1 %d: records must not grow with the population", i+1, size, sizes[1])
		}
	}
	var whole bytes.Buffer
	if err := Encode(&whole, last); err != nil {
		t.Fatal(err)
	}
	t.Logf("log %d bytes, one snapshot of the end state %d", end, whole.Len())
	if end > int64(whole.Len())*11/10 {
		t.Fatalf("the log is %d bytes, over 110%% of one %d-byte snapshot of the end state", end, whole.Len())
	}
	got, _, err := (&Store{Dir: st.Dir}).LoadLatest("steady")
	if err != nil || got == nil || !reflect.DeepEqual(got.Capture, copyCapture(last.Capture)) {
		t.Fatalf("the log does not fold to its last snapshot (%v)", err)
	}
}

// TestKillResumeEndToEnd is the integration property behind qmfleetd's
// crash recovery: run with periodic checkpointing into a Store, crash
// at a fault-plan-chosen boundary (after the snapshot is durable, as a
// SIGKILL between Save and the next event would be), reload the newest
// valid snapshot by fingerprint and resume at a different scheduler
// shape — the sealed result must match the uninterrupted serial spec
// exactly. Several seeds move the kill point across the run.
func TestKillResumeEndToEnd(t *testing.T) {
	cfg := testConfig(t, 16, 47)
	ref, err := fleet.OpenRunStatsSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint("e2e")

	for seed := uint64(1); seed <= 4; seed++ {
		st := &Store{Dir: t.TempDir()}
		kill := newFaultPlan(seed).KillEvents(40)
		run := cfg
		run.Workers = int(seed % 3)
		_, err := fleet.OpenRunStatsCheckpointed(run, nil, 2, func(c *fleet.OpenCapture) error {
			if _, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: fp}, Capture: c}); err != nil {
				return err
			}
			if c.Events >= kill {
				return errInjectedKill
			}
			return nil
		})
		if !errors.Is(err, errInjectedKill) {
			t.Fatalf("seed %d: run survived its injected kill: %v", seed, err)
		}

		snap, path, err := st.LoadLatest(fp)
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatalf("seed %d: no snapshot to resume from", seed)
		}
		resume := cfg
		resume.Workers, resume.BatchCycles = int(seed%4)+1, int(seed%2)
		res, err := fleet.OpenRunStatsCheckpointed(resume, snap.Capture, 0, nil)
		if err != nil {
			t.Fatalf("seed %d: resume from %s: %v", seed, path, err)
		}
		compareResults(t, fmt.Sprintf("seed %d resume", seed), ref, res)
	}
}

// goldenSnapshot is the pinned format input: the first capture of a
// workers=1 run checkpointing every 2 events that holds both finished
// and live streams.
func goldenSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	cfg := testConfig(t, 16, 47)
	cfg.Workers = 1
	var first *fleet.OpenCapture
	if _, err := fleet.OpenRunStatsCheckpointed(cfg, nil, 2, func(c *fleet.OpenCapture) error {
		if first == nil && c.NumClosed() > 0 && len(c.Live) > 0 {
			first = c
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.Events != 10 {
		t.Fatalf("golden capture moved: %+v", first)
	}
	return &Snapshot{
		Meta: Meta{
			Fingerprint:   "golden",
			ArrivalCursor: first.NextArrival,
			BundleHashes:  []uint64{0xDEADBEEF, 42},
			StreamBundle:  []int32{0, 1, 0},
		},
		Capture: first,
	}
}

// TestSnapshotEncodingGolden pins the version-2 bytes of one
// self-contained record: any change to the encoder that is not a format
// change must leave them identical.
func TestSnapshotEncodingGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, goldenSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	const (
		wantLen = 1799
		wantSum = "0ab240cc1613f00a6913c01206d65c8599633420f9f5182673010bbbe3d8bc96"
	)
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != wantLen || sum != wantSum {
		t.Fatalf("golden snapshot is %d bytes with SHA-256 %s; want %d bytes with %s", buf.Len(), sum, wantLen, wantSum)
	}
}

// TestEncodeAllocatesOnce: Encode sizes the snapshot from the capture
// and allocates only its one buffer, whatever the capture holds.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, n := range []int{12, 160} {
		snap := &Snapshot{Meta: Meta{Fingerprint: "allocs"}, Capture: captureMidRun(t, testConfig(t, n, 59), 2)}
		var buf bytes.Buffer
		if err := Encode(&buf, snap); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() { Encode(io.Discard, snap) })
		t.Logf("Encode of a %d-byte snapshot: %.0f allocations", buf.Len(), allocs)
		if allocs != 1 {
			t.Fatalf("Encode of a %d-byte snapshot allocates %.0f times; want 1", buf.Len(), allocs)
		}
	}
}

// wrap frames payload in a valid header — magic, version, length and
// CRC — so a crafted payload reaches the payload decoder.
func wrap(payload []byte) []byte {
	b := make([]byte, headerSize, headerSize+len(payload))
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[8:], Version)
	binary.LittleEndian.PutUint64(b[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestDecodeRejectsWhatTheInputCannotHold: lengths and counts that
// declare more than the input carries fail in their usual error class
// without Decode allocating what they declare, and a bool byte other
// than 0 or 1 is corrupt, not true.
func TestDecodeRejectsWhatTheInputCannotHold(t *testing.T) {
	headerOnly := wrap(nil)
	binary.LittleEndian.PutUint64(headerOnly[12:], maxPayload)

	// An empty capture's payload ends with its closed offset and its
	// closed, backlog, departure and live counts; the 9-byte fingerprint
	// makes it 177 bytes.
	one := func(c *fleet.OpenCapture) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, &Snapshot{Meta: Meta{Fingerprint: "oversized"}, Capture: c}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[headerSize:]
	}
	manyClosed := one(&fleet.OpenCapture{})
	if len(manyClosed) != 177 {
		t.Fatalf("crafted payload is %d bytes, want 177", len(manyClosed))
	}
	binary.LittleEndian.PutUint64(manyClosed[len(manyClosed)-4*8:], 1<<24)
	// One shed stream's lifecycle ends with its three bools, before the
	// backlog, departure and live counts.
	badBool := one(&fleet.OpenCapture{Closed: []fleet.ClosedStream{{Lifecycle: metrics.Lifecycle{Shed: true}}}})
	badBool[len(badBool)-3*8-3] = 2 // the lifecycle's Queued byte

	for _, tc := range []struct {
		name  string
		in    []byte
		class string
	}{
		{"header declaring a 2^31-byte payload", headerOnly, "truncated record"},
		{"payload declaring 2^24 closed streams", wrap(manyClosed), "corrupt payload"},
		{"bool byte 2", wrap(badBool), "corrupt payload"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasPrefix(err.Error(), "checkpoint: "+tc.class) {
			t.Errorf("%s: err = %v, want a %q error", tc.name, err, tc.class)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes before failing; want under 1 MB", tc.name, d)
		}
	}
}
