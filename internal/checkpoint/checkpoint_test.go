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
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("decoded snapshot differs from the encoded one:\n%+v\n%+v", snap, got)
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
	cap := captureMidRun(t, testConfig(t, 12, 33), 3)
	if len(cap.Live) == 0 && len(cap.Done) == 0 {
		t.Fatal("capture has no per-stream entries to corrupt")
	}
	if len(cap.Live) > 0 {
		cap.Live[0].Trace.Records = []sim.Record{{}}
	} else {
		cap.Done[0].Trace.Records = []sim.Record{{}}
	}
	if err := Encode(&bytes.Buffer{}, &Snapshot{Capture: cap}); err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("Encode accepted a capture with retained records (err=%v)", err)
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

// TestStoreFallback: the store's recovery ladder. The newest snapshot
// is corrupted on disk (a flipped bit) and the one below it belongs to
// a different run; LoadLatest must log both skips and land on the
// newest valid, matching snapshot.
func TestStoreFallback(t *testing.T) {
	cfg := testConfig(t, 14, 41)
	cap := captureMidRun(t, cfg, 4)
	fp := Fingerprint("run")

	var logged []string
	st := &Store{Dir: t.TempDir(), Keep: -1,
		Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }}

	mk := func(events int64, fingerprint string) string {
		c := *cap
		c.Events = events
		path, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: fingerprint}, Capture: &c})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	want := mk(10, fp)
	mk(20, "other-run")
	newest := mk(30, fp)

	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, newFaultPlan(3).BitFlip(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	s, path, err := st.LoadLatest(fp)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || path != want || s.Capture.Events != 10 {
		t.Fatalf("fallback landed on %q (snap=%v), want %q", path, s, want)
	}
	if len(logged) != 2 {
		t.Fatalf("expected 2 skip log lines, got %d: %v", len(logged), logged)
	}

	if s, path, err := (&Store{Dir: t.TempDir()}).LoadLatest(fp); s != nil || path != "" || err != nil {
		t.Fatalf("empty store must be a clean fresh start, got %v %q %v", s, path, err)
	}
}

// TestStoreMetrics: a Store with Met wired counts snapshots written,
// bytes encoded, encode latency observations, prunes and LoadLatest
// fallbacks — the counters qmfleetd's /metrics and /healthz read.
func TestStoreMetrics(t *testing.T) {
	cap := captureMidRun(t, testConfig(t, 12, 53), 4)
	reg := obs.NewRegistry("t")
	var clock int64
	met := obs.NewCheckpointMetrics(reg, func() int64 { clock += 1000; return clock })
	st := &Store{Dir: t.TempDir(), Keep: 2, Met: met}
	var paths []string
	for _, ev := range []int64{5, 15, 25} {
		c := *cap
		c.Events = ev
		path, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: "f"}, Capture: &c})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	if got := met.Snapshots.Value(); got != 3 {
		t.Fatalf("snapshots = %d, want 3", got)
	}
	if got := met.Pruned.Value(); got != 1 {
		t.Fatalf("pruned = %d, want 1 (Keep=2 over 3 saves)", got)
	}
	if met.Bytes.Value() <= 0 {
		t.Fatal("bytes counter did not advance")
	}
	if got := met.Encode.Count(); got != 3 {
		t.Fatalf("encode observations = %d, want 3", got)
	}
	// Corrupt the newest snapshot: the fallback walk must count it.
	newest := paths[len(paths)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, newFaultPlan(3).BitFlip(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, err := st.LoadLatest("f"); err != nil || s == nil || s.Capture.Events != 15 {
		t.Fatalf("fallback load failed: %v %v", s, err)
	}
	if got := met.Fallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

// TestStorePrune: Save retains only the Keep newest snapshots.
func TestStorePrune(t *testing.T) {
	cap := captureMidRun(t, testConfig(t, 12, 43), 4)
	st := &Store{Dir: t.TempDir(), Keep: 2}
	for _, ev := range []int64{5, 15, 25, 35} {
		c := *cap
		c.Events = ev
		if _, err := st.Save(&Snapshot{Meta: Meta{Fingerprint: "f"}, Capture: &c}); err != nil {
			t.Fatal(err)
		}
	}
	names := st.list()
	if len(names) != 2 || Events(names[0]) != 25 || Events(names[1]) != 35 {
		t.Fatalf("prune kept %v, want the 2 newest (25, 35)", names)
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
		if first == nil && len(c.Done) > 0 && len(c.Live) > 0 {
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

// TestSnapshotEncodingGolden pins the version-1 bytes: any change to the
// encoder that is not a format change must leave them identical.
func TestSnapshotEncodingGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, goldenSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	const (
		wantLen = 2184
		wantSum = "8466bd82245b12cf16b314f52ee774cd90317b7475d364246161c532f4ef5e6a"
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

	// An empty capture's payload ends with its lifecycle, finished and
	// live counts; the 9-byte fingerprint makes it 153 bytes.
	one := func(c *fleet.OpenCapture) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, &Snapshot{Meta: Meta{Fingerprint: "oversized"}, Capture: c}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[headerSize:]
	}
	manyLifecycles := one(&fleet.OpenCapture{})
	if len(manyLifecycles) != 153 {
		t.Fatalf("crafted payload is %d bytes, want 153", len(manyLifecycles))
	}
	binary.LittleEndian.PutUint64(manyLifecycles[len(manyLifecycles)-3*8:], 1<<24)
	badBool := one(&fleet.OpenCapture{Lifecycles: make([]metrics.Lifecycle, 1)})
	badBool[len(badBool)-2*8-3] = 2 // the lifecycle's Queued byte

	for _, tc := range []struct {
		name  string
		in    []byte
		class string
	}{
		{"header declaring a 2^31-byte payload", headerOnly, "truncated snapshot"},
		{"payload declaring 2^24 lifecycles", wrap(manyLifecycles), "corrupt payload"},
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
