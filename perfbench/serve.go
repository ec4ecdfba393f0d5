package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// serve-checkpoint: qmfleetd replays 20k Poisson arrivals of short
// streams bound to a compiled sdr-pipeline bundle, with one mid-file hot
// swap to audio-encoder, checkpointing every serveEvery event groups; a
// -resume restart on the same event file and state directory follows.
// Per-event layers dominate: NDJSON ingest, frontier and admission,
// per-stream slab growth, snapshot writes and resume reads. The daemon
// runs one worker: the multi-worker open engine can lose a wakeup and
// hang, which inside qmfleetd would be silent.
const (
	serveArrivals = 20000
	serveMeanGap  = 10 * core.Millisecond
	serveEvery    = 1024
	serveLevels   = 5
	serveNoise    = 0.3
	// serveLimit bounds one daemon run for the watchdog: ~30× a full
	// serve on a 2-CPU host.
	serveLimit = 90 * time.Second
)

var (
	serveAdmit = fleet.CapK{K: 8, Queue: 16}
	serveRho   = []int{1, 5, 10, 25}
	serveNames = []string{"sdr-pipeline", "audio-encoder"}
)

// event is one NDJSON input line, spelled as qmfleetd reads it.
type event struct {
	Op     string `json:"op"`
	Name   string `json:"name,omitempty"`
	At     int64  `json:"at,omitempty"`
	Cycles int    `json:"cycles,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Bundle string `json:"bundle,omitempty"`
}

// serveInput is the generated input: the two compiler specs and the
// event file's lines (the swap sits mid-file).
type serveInput struct {
	specs []controller.Spec
	lines [][]byte
}

func serveInputs(e *env) (*serveInput, error) {
	cat, err := workloads.Catalog()
	if err != nil {
		return nil, err
	}
	in := &serveInput{}
	for _, name := range serveNames {
		in.specs = append(in.specs, controller.SpecFromSystem(name, cat[name], serveRho))
	}
	times, err := arrivals.Poisson{MeanGap: serveMeanGap, Seed: fleet.ForSubsystem(e.seed, "perfbench/arrivals")}.Times(serveArrivals)
	if err != nil {
		return nil, err
	}
	mix := fleet.ForSubsystem(e.seed, "perfbench/mix")
	content := fleet.ForSubsystem(e.seed, "perfbench/content")
	add := func(ev event) error {
		line, err := json.Marshal(ev)
		in.lines = append(in.lines, line)
		return err
	}
	for k := range times {
		if k == len(times)/2 {
			if err := add(event{Op: "swap", Bundle: bundlePath("", serveNames[1])}); err != nil {
				return nil, err
			}
		}
		if err := add(event{
			Op:     "arrive",
			Name:   "s" + strconv.Itoa(k),
			At:     int64(times[k]),
			Cycles: 1 + int(sim.Mix64(mix+uint64(k))%4),
			Seed:   fleet.DeriveSeed(content, k),
		}); err != nil {
			return nil, err
		}
	}
	e.inputs = hashInputs(fmt.Appendf(nil, "%v", in.specs), bytes.Join(in.lines, []byte("\n")))
	return in, nil
}

// write stores the bundles, the event file and its one-arrival prefix
// in the scratch directory, qmfleetd's working directory.
func (in *serveInput) write(tr *tracer, e *env) ([]*controller.Bundle, error) {
	bs, err := compileBundles(tr, e.dir, in.specs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(e.dir, "events.ndjson"), append(bytes.Join(in.lines, []byte("\n")), '\n'), 0o644); err != nil {
		return nil, err
	}
	return bs, os.WriteFile(filepath.Join(e.dir, "one.ndjson"), append(slices.Clone(in.lines[0]), '\n'), 0o644)
}

// serveStream builds one stream exactly as qmfleetd's buildStream does
// under its default relaxed manager.
func serveStream(b *controller.Bundle, ev event) fleet.Stream {
	sys := b.System()
	return fleet.Stream{
		Name: ev.Name,
		Runner: sim.Runner{
			Sys:      sys,
			Mgr:      b.Relaxed(),
			Exec:     sim.Content{Sys: sys, NoiseAmp: serveNoise, Seed: ev.Seed},
			Overhead: sim.IPodOverhead,
			Cycles:   ev.Cycles,
		},
	}
}

// population decodes the event file into the streams qmfleetd serves,
// each bound to the bundle active at its arrival.
func (in *serveInput) population(bs []*controller.Bundle) ([]fleet.Stream, []core.Time, error) {
	var streams []fleet.Stream
	var times []core.Time
	active := bs[0]
	for _, line := range in.lines {
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, nil, err
		}
		if ev.Op == "swap" {
			active = bs[1]
			continue
		}
		streams = append(streams, serveStream(active, ev))
		times = append(times, core.Time(ev.At))
	}
	return streams, times, nil
}

// serveRef is the reference report: the summaries fleet's serial open
// spec gives for the same population and admission.
type serveRef struct {
	summary, open []byte
	streams       int
}

func serveReference(streams []fleet.Stream, times []core.Time) (*serveRef, error) {
	res, err := fleet.OpenRunStatsSerial(fleet.OpenConfig{Streams: streams, Arrivals: times, Admit: serveAdmit, Workers: 1})
	if err != nil {
		return nil, err
	}
	return newServeRef(res, len(streams))
}

func newServeRef(res *fleet.OpenResult, n int) (*serveRef, error) {
	summary, err := json.Marshal(report.Aggregate(res.FleetResult()))
	if err != nil {
		return nil, err
	}
	open, err := json.Marshal(metrics.SummarizeOpen(res.OpenObservations))
	return &serveRef{summary: summary, open: open, streams: n}, err
}

// check reads a daemon report and compares its summaries with the
// reference; it returns the document for tallying.
func (ref *serveRef) check(path string) (*metrics.FleetDoc, bool) {
	f, err := os.Open(path)
	if err != nil {
		logf("%v", err)
		return nil, false
	}
	defer f.Close()
	doc, err := metrics.ReadFleetDoc(f)
	if err != nil || doc.Open == nil {
		logf("%s: %v", path, err)
		return nil, false
	}
	summary, err1 := json.Marshal(doc.Summary)
	open, err2 := json.Marshal(doc.Open)
	if err1 != nil || err2 != nil || !bytes.Equal(summary, ref.summary) || !bytes.Equal(open, ref.open) {
		logf("%s: summaries differ from the serial open spec", path)
		return doc, false
	}
	return doc, true
}

func daemonArgs(events, state, report string, resume bool) []string {
	args := []string{
		"-bundle", bundlePath("", serveNames[0]), "-events", events,
		"-workers", "1", "-admit", "cap=8,queue=16", "-max-levels", strconv.Itoa(serveLevels),
		"-state", state, "-every", strconv.Itoa(serveEvery), "-json", report,
	}
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// daemonRun is one qmfleetd process: its wall time and peak RSS.
type daemonRun struct {
	wall   time.Duration
	rssMB  float64
	killed bool
}

// runDaemon starts qmfleetd in the scratch directory and waits for it.
// Past serveLimit the watchdog sends SIGQUIT, on which Go prints every
// goroutine's stack; the stacks are kept and the run reports killed.
func runDaemon(e *env, label string, args []string) (daemonRun, error) {
	var r daemonRun
	cmd := exec.Command(e.qmfleetd, args...)
	cmd.Dir = e.dir
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	timer := time.NewTimer(serveLimit)
	defer timer.Stop()
	var err error
	select {
	case err = <-done:
	case <-timer.C:
		r.killed = true
		cmd.Process.Signal(syscall.SIGQUIT)
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			err = <-done
		}
	}
	r.wall = time.Since(t0)
	if r.killed {
		keepStacks(e.dir, label, serveLimit, stderr.Bytes())
		return r, nil
	}
	if err != nil {
		return r, fmt.Errorf("%s: %v: %s", label, err, stderr.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return r, nil
}

// daemonSetup is the daemon's wall time on the one-arrival input with
// the serving flags: process start, bundle load, engine start, report.
func daemonSetup(e *env) (float64, error) {
	const state = "setup-state"
	defer os.RemoveAll(filepath.Join(e.dir, state))
	r, err := runDaemon(e, "setup", daemonArgs("one.ndjson", state, state+".json", false))
	if err != nil {
		return 0, err
	}
	if r.killed {
		return 0, fmt.Errorf("one-arrival qmfleetd run hung")
	}
	return r.wall.Seconds(), nil
}

// serveOnce is one measured run: an uninterrupted serve, then a -resume
// restart on the same state directory whose report must be
// byte-identical. It reports false when the watchdog killed a process.
func serveOnce(e *env, ref *serveRef, o *outcome, i int) (serve, resume daemonRun, doc *metrics.FleetDoc, ok bool) {
	state := fmt.Sprintf("state-%d", i)
	servePath, resumePath := filepath.Join(e.dir, fmt.Sprintf("serve-%d.json", i)), filepath.Join(e.dir, fmt.Sprintf("resume-%d.json", i))
	defer func() {
		os.RemoveAll(filepath.Join(e.dir, state))
		os.Remove(servePath)
		os.Remove(resumePath)
	}()
	serve, err := runDaemon(e, fmt.Sprintf("serve-run%d", i), daemonArgs("events.ndjson", state, servePath, false))
	if err == nil && !serve.killed {
		resume, err = runDaemon(e, fmt.Sprintf("resume-run%d", i), daemonArgs("events.ndjson", state, resumePath, true))
	}
	if serve.killed || resume.killed || err != nil {
		if err != nil {
			logf("%v", err)
		}
		o.runs(ref.streams, ref.streams)
		return serve, resume, nil, !serve.killed && !resume.killed
	}
	doc, same := ref.check(servePath)
	a, err1 := os.ReadFile(servePath)
	b, err2 := os.ReadFile(resumePath)
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		logf("run %d: the resumed report differs from the uninterrupted one", i)
		same = false
	}
	if !same {
		o.runs(ref.streams, ref.streams)
		return serve, resume, nil, true
	}
	o.runs(ref.streams, 0)
	return serve, resume, doc, true
}

func (t *tally) addDoc(doc *metrics.FleetDoc) {
	t.streams += doc.Open.Streams
	t.ran += doc.Open.Streams - doc.Open.Shed
	t.records += doc.Summary.Records
	t.deadlines += doc.Summary.DeadlineRecords
	t.misses += doc.Summary.Misses
	t.qsum += doc.Summary.AvgQuality * float64(doc.Summary.Records)
}

func runServe(e *env) (*outcome, error) {
	in, err := serveInputs(e)
	if err != nil {
		return nil, err
	}
	bs, err := in.write(nil, e)
	if err != nil {
		return nil, err
	}
	streams, times, err := in.population(bs)
	if err != nil {
		return nil, err
	}
	ref, err := serveReference(streams, times)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var x e2e
	// A set-up sample precedes every measured run, so the samples span
	// the run's time like the measured runs do.
	measure(e, 3, func(i int) bool {
		var setup float64
		if setup, err = daemonSetup(e); err != nil {
			return false
		}
		x.setup = append(x.setup, setup)
		serve, resume, doc, ok := serveOnce(e, ref, o, i)
		if doc != nil {
			x.t.addDoc(doc)
			x.eventsPerS = append(x.eventsPerS, float64(len(in.lines))/serve.wall.Seconds())
			x.nsPerAction = append(x.nsPerAction, float64(serve.wall.Nanoseconds())/float64(doc.Summary.Records))
			x.resume = append(x.resume, resume.wall.Seconds())
			x.rssMB = append(x.rssMB, serve.rssMB)
		}
		return ok
	})
	if err != nil {
		return nil, err
	}
	x.report(o)
	return o, nil
}

// mirror is qmfleetd's ingest, checkpoint and resume loop rebuilt from
// the library's public calls, so the traced pass can time each of them.
type mirror struct {
	tr      *tracer
	live    *fleet.OpenLive
	store   *checkpoint.Store
	fp      string
	byName  map[string]*controller.Bundle
	byHash  map[uint64]*controller.Bundle
	hashOf  map[*controller.Bundle]uint64
	order   []uint64
	active  *controller.Bundle
	streams []fleet.Stream
	times   []core.Time
	bundle  []int32
	lines   int
	last    int64
	sizes   []int
}

func newMirror(tr *tracer, e *env, bs []*controller.Bundle, state string, met *obs.FleetMetrics) (*mirror, error) {
	if err := os.MkdirAll(filepath.Join(e.dir, state), 0o755); err != nil {
		return nil, err
	}
	var adm fleet.Admitter = serveAdmit
	if tr != nil {
		adm = timedAdmitter{tr: tr, a: adm}
	}
	m := &mirror{
		tr:     tr,
		live:   fleet.NewOpenLive(fleet.OpenLiveConfig{Admit: adm, Workers: 1, MaxLevels: serveLevels, Obs: met}),
		store:  &checkpoint.Store{Dir: filepath.Join(e.dir, state)},
		fp:     checkpoint.Fingerprint("qmfleetd", "relaxed", serveAdmit.Name(), strconv.Itoa(serveLevels), strconv.FormatFloat(serveNoise, 'g', -1, 64)),
		byName: map[string]*controller.Bundle{},
		byHash: map[uint64]*controller.Bundle{},
		hashOf: map[*controller.Bundle]uint64{},
	}
	for i, b := range bs {
		h, err := b.Hash()
		if err != nil {
			return nil, err
		}
		m.byName[bundlePath("", serveNames[i])] = b
		m.byHash[h] = b
		m.hashOf[b] = h
	}
	m.activate(bs[0])
	return m, nil
}

func (m *mirror) activate(b *controller.Bundle) {
	if b == m.active {
		return
	}
	m.active = b
	m.order = append(m.order, m.hashOf[b])
}

// ingest applies one event line, then checkpoints on the daemon's
// schedule.
func (m *mirror) ingest(raw []byte) error {
	var ev event
	if err := json.Unmarshal(raw, &ev); err != nil {
		return err
	}
	m.lines++
	switch ev.Op {
	case "arrive":
		s := serveStream(m.active, ev)
		t := core.Time(ev.At)
		m.tr.begin(lFeed)
		err := m.live.Feed(s, t)
		m.tr.end()
		if err != nil {
			return err
		}
		m.streams = append(m.streams, s)
		m.times = append(m.times, t)
		m.bundle = append(m.bundle, int32(len(m.order)-1))
	case "swap":
		b, ok := m.byName[ev.Bundle]
		if !ok {
			return fmt.Errorf("swap to unknown bundle %q", ev.Bundle)
		}
		m.activate(b)
	}
	if m.live.Events() >= m.last+serveEvery {
		return m.checkpoint()
	}
	return nil
}

// checkpoint captures, encodes and saves a snapshot. The traced pass
// encodes it once more to memory to time the codec apart from the
// durable write.
func (m *mirror) checkpoint() error {
	m.tr.begin(lCapture)
	c, err := m.live.Checkpoint()
	m.tr.end()
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Fingerprint:   m.fp,
			ArrivalCursor: m.lines,
			BundleHashes:  slices.Clone(m.order),
			StreamBundle:  slices.Clone(m.bundle),
		},
		Capture: c,
	}
	if m.tr != nil {
		var buf bytes.Buffer
		m.tr.begin(lEncode)
		err := checkpoint.Encode(&buf, snap)
		m.tr.end()
		if err != nil {
			return err
		}
		m.sizes = append(m.sizes, buf.Len())
	}
	m.tr.begin(lSave)
	_, err = m.store.Save(snap)
	m.tr.end()
	m.last = c.Events
	return err
}

// resume restores the newest snapshot: load it, rebuild the consumed
// prefix's streams against their recorded bundles, restore the engine.
// It returns the event-file cursor to continue from.
func (m *mirror) resume(lines [][]byte) (int, error) {
	m.tr.begin(lLoadLatest)
	snap, _, err := m.store.LoadLatest(m.fp)
	m.tr.end()
	if err != nil {
		return 0, err
	}
	if snap == nil {
		return 0, fmt.Errorf("no snapshot to resume from in %s", m.store.Dir)
	}
	m.order, m.bundle = snap.Meta.BundleHashes, snap.Meta.StreamBundle
	k := 0
	for _, raw := range lines[:snap.Meta.ArrivalCursor] {
		var ev event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, err
		}
		if ev.Op != "arrive" {
			continue
		}
		m.streams = append(m.streams, serveStream(m.byHash[m.order[m.bundle[k]]], ev))
		m.times = append(m.times, core.Time(ev.At))
		k++
	}
	m.tr.begin(lRestore)
	err = m.live.Restore(snap.Capture, m.streams, m.times)
	m.tr.end()
	m.active = m.byHash[m.order[len(m.order)-1]]
	m.lines, m.last = snap.Meta.ArrivalCursor, snap.Capture.Events
	return m.lines, err
}

// finish ingests lines and closes the engine.
func (m *mirror) finish(lines [][]byte) (*fleet.OpenResult, error) {
	for _, raw := range lines {
		if err := m.ingest(raw); err != nil {
			m.live.Abort()
			return nil, err
		}
	}
	m.tr.begin(lDrain)
	res, err := m.live.Close()
	m.tr.end()
	return res, err
}

func traceServe(e *env) (*outcome, error) {
	in, err := serveInputs(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o := layerOutcome()
	var bs []*controller.Bundle
	if err := tr.phase(func() error {
		if _, err := in.write(tr, e); err != nil {
			return err
		}
		bs, err = loadBundles(tr, e.dir, serveNames)
		if err != nil {
			return err
		}
		buildPlans(tr, bs, true)
		return nil
	}); err != nil {
		return nil, err
	}
	streams, times, err := in.population(bs)
	if err != nil {
		return nil, err
	}
	ref, err := serveReference(streams, times)
	if err != nil {
		return nil, err
	}
	a, err := serialStep(tr, streams)
	if err != nil {
		return nil, err
	}

	// The residuals subtract in-process spans from daemon wall times, so
	// each wall time is a median of a few runs.
	var setup, serveNs, resumeNs []float64
	for i := 0; i < engineRuns; i++ {
		d, err := daemonSetup(e)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
		serve, resume, doc, _ := serveOnce(e, ref, o, i)
		if doc == nil {
			return o, nil // failed, killed or wrong: counted, nothing to break down
		}
		serveNs = append(serveNs, float64(serve.wall.Nanoseconds()))
		resumeNs = append(resumeNs, float64(resume.wall.Nanoseconds()))
	}

	// The plain replay times nothing; it is the untraced counterpart and
	// gives the live heap once every stream is fed.
	plain, err := newMirror(nil, e, bs, "mirror-plain", nil)
	if err != nil {
		return nil, err
	}
	t0 := now()
	for _, raw := range in.lines {
		if err := plain.ingest(raw); err != nil {
			return nil, err
		}
	}
	plainNs := float64(now() - t0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / float64(plain.live.Population())
	if _, err := plain.finish(nil); err != nil {
		return nil, err
	}

	met := obs.NewFleetMetrics(obs.NewRegistry("perfbench"))
	m, err := newMirror(tr, e, bs, "mirror", met)
	if err != nil {
		return nil, err
	}
	var res *fleet.OpenResult
	var tracedNs float64
	if err := tr.phase(func() error {
		t0 := now()
		res, err = m.finish(in.lines)
		tracedNs = float64(now() - t0)
		return err
	}); err != nil {
		return nil, err
	}
	drains := met.BlockingDrains.Value()
	feeds, snaps := len(tr.lat[lFeed]), len(m.sizes)
	engineWork := tr.incl[lFeed] + tr.incl[lCapture] + tr.incl[lSave]
	engineNs := float64(tr.incl[lFeed] + tr.incl[lDrain])
	engineActions := report.Aggregate(res.FleetResult()).Records
	if snaps == 0 {
		return nil, fmt.Errorf("the replay took no snapshot")
	}
	p50 := func(l layer) float64 { return median(scaled(tr.lat[l][:snaps], 1e6)) }
	o.layer("checkpoint.capture_ms", p50(lCapture))
	o.layer("checkpoint.encode_ms", p50(lEncode))
	o.layer("checkpoint.save_ms", p50(lSave))
	o.layer("checkpoint.snapshot_bytes", float64(m.sizes[snaps-1]))
	o.layer("checkpoint.snapshots", float64(snaps))
	if err := inProcessCheck(ref, res, o); err != nil {
		return nil, err
	}

	// Restart in-process from the replay's own state directory.
	r, err := newMirror(tr, e, bs, "mirror", nil)
	if err != nil {
		return nil, err
	}
	var tailNs int64
	if err := tr.phase(func() error {
		cursor, err := r.resume(in.lines)
		if err != nil {
			return err
		}
		t0 := now()
		res, err = r.finish(in.lines[cursor:])
		tailNs = now() - t0
		return err
	}); err != nil {
		return nil, err
	}
	if err := inProcessCheck(ref, res, o); err != nil {
		return nil, err
	}

	setupNs := median(setup) * 1e9
	o.commonLayers(tr, a, engineNs, engineActions, 1)
	o.feedLatency(tr, feeds)
	o.layer("fleet.admit_ns", tr.perCall(lAdmit))
	o.layer("fleet.blocking_drains", float64(drains))
	o.layer("fleet.heap_bytes_per_stream", heap)
	o.layer("checkpoint.load_ms", tr.ms(lLoadLatest))
	o.layer("checkpoint.restore_ms", tr.ms(lRestore))
	o.layer("qmfleetd.ingest_residual_us", (median(serveNs)-setupNs-float64(engineWork))/float64(len(in.lines))/1e3)
	o.layer("qmfleetd.resume_residual_ms", (median(resumeNs)-setupNs-float64(tr.incl[lLoadLatest]+tr.incl[lRestore]+tailNs))/1e6)
	o.layer("trace_overhead_frac", (a.decoratedNs+tracedNs-a.plainNs-plainNs)/(a.plainNs+plainNs))
	o.layer("ledger_residual_frac", tr.residual())
	return o, nil
}

// inProcessCheck compares an in-process replay's summaries with the
// reference; a mismatch fails every stream of the run.
func inProcessCheck(ref *serveRef, res *fleet.OpenResult, o *outcome) error {
	got, err := newServeRef(res, ref.streams)
	if err != nil {
		return err
	}
	failed := 0
	if !bytes.Equal(got.summary, ref.summary) || !bytes.Equal(got.open, ref.open) {
		logf("in-process replay: summaries differ from the serial open spec")
		failed = ref.streams
	}
	o.runs(ref.streams, failed)
	return nil
}
