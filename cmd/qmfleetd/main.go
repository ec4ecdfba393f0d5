// Command qmfleetd is the long-running serving form of qmfleet: an
// open-fleet engine fed from an NDJSON event file instead of a
// pre-materialised arrival schedule, with crash-safe checkpoints, hot
// controller-bundle swaps and HTTP observables. It is the deployment
// shape the paper's tool flow points at — one compiled controller
// serving streams as they arrive — hardened for operation: the process
// can be killed at any instant and resumed with results byte-identical
// to a run that was never interrupted.
//
// Usage:
//
//	qmfleetd -bundle app.json -events arrivals.ndjson
//	         [-state dir] [-every 32] [-resume]
//	         [-manager relaxed] [-admit all|cap=K[,queue=N]|budget=U[,queue=N]]
//	         [-workers 0] [-batch 32] [-max-levels 0] [-noise 0.3]
//	         [-json final.json] [-http addr] [-kill-after N]
//	         [-trace out.json] [-linger 0s]
//
// With -http the daemon serves /stats (JSON observables), /metrics
// (Prometheus text exposition of the engine's allocation-free
// instrument registry), /debug/pprof/* (the standard profiles) and a
// real /healthz: 503 whenever the last snapshot write failed,
// otherwise 200 with the checkpoint age (in engine events) and the
// admission backlog. -trace records engine events (arrivals,
// admissions, sheds, binds, completions, steals, parks, checkpoints,
// swaps) into a bounded ring stamped with virtual instants and event
// counters — never wall clocks — and writes them as Chrome trace JSON
// (chrome://tracing, Perfetto) on exit. Metrics and tracing never
// change results: the engine is property-tested byte-identical with
// observability on and off. -linger keeps the HTTP endpoints up for a
// grace period after the run completes, so scrapers can collect the
// final state.
//
// Each input line is one event, in simulated-time order:
//
//	{"op":"arrive","name":"cam-1","at":1500000,"cycles":8,"seed":7}
//	{"op":"swap","bundle":"app-v2.json"}
//
// "arrive" admits a stream at instant "at" (nanoseconds, non-
// decreasing), built against the currently active bundle. "swap" loads
// a new bundle: streams arriving after the swap bind its tables, while
// in-flight streams keep the managers they started with — traces are
// never disturbed mid-run, and a swap to a byte-identical bundle is a
// no-op by the controller package's reload property.
//
// With -state, the daemon checkpoints the engine every -every event
// groups, on SIGTERM/SIGINT, and before a -kill-after exit, into the
// directory's checkpoint log (checkpoint.log), and keeps a
// content-addressed copy of every bundle it has served
// (bundle-<hash>.json). Each checkpoint appends one versioned,
// CRC-checked record holding what changed since the last: the streams
// that closed, the bundles activated, the bundle of each newly fed
// stream, and the complete open state. The first checkpoint creates the
// log. A run without -resume refuses a directory that already holds
// checkpoints. -resume folds the log into the newest whole record — a
// torn or corrupt tail is logged and dropped, and cut off before the
// next append — replays the consumed prefix of the event file against
// the recorded per-stream bundles, and continues; with no usable record
// it starts a new log. A directory written before the log (format
// version 1, snap-*.ckpt files) fails -resume with an error naming the
// version. -kill-after N exits with code 3 after ingesting N lines
// (checkpoint first), the deterministic crash the kill/resume checks
// drive. Checkpoints are written off the serving goroutine, at most one
// at a time; one is durable once its checkpoint line is logged, and a
// signal or -kill-after exits only after the last write has committed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

// event is one NDJSON input line.
type event struct {
	Op     string `json:"op"`
	Name   string `json:"name,omitempty"`
	At     int64  `json:"at,omitempty"` // simulated ns
	Cycles int    `json:"cycles,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	Bundle string `json:"bundle,omitempty"` // swap target
}

// observables is the HTTP-served state snapshot, replaced atomically
// after every ingested event.
type observables struct {
	Ingested       int    `json:"ingested_events"`
	EngineEvents   int64  `json:"engine_events"`
	Population     int    `json:"population"`
	Backlog        int    `json:"backlog"`
	ActiveBundle   string `json:"active_bundle"`
	Swaps          int    `json:"swaps"`
	LastCheckpoint int64  `json:"last_checkpoint_events"`
	// LastCheckpointError is the failure of the most recent snapshot
	// attempt ("" = healthy); /healthz serves 503 while it is set.
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

// daemon carries the serving state threaded through ingest, replay,
// checkpointing and shutdown.
type daemon struct {
	cfg      config
	live     *fleet.OpenLive
	opt      fleet.Options // stream construction; Cycles is set per arrival
	stateDir string
	store    *checkpoint.Store
	fp       string

	bundles   map[uint64]*controller.Bundle // by hash
	order     []uint64                      // activation order; last = active
	active    *controller.Bundle
	activeH   uint64
	activeHex string // activeH as the observables print it
	swaps     int
	ingested  int     // input lines consumed (the checkpoint cursor)
	bundleOf  []int32 // per fed stream: index into order

	// lastCkpt and lastCkptErr describe the newest snapshot write that
	// finished: its engine event count once durable, its error if it
	// failed. ckptFrom is where the checkpoint interval counts from: the
	// newest capture handed to a write, or lastCkpt after a failure.
	// saving is the write in flight, nil when none is.
	lastCkpt    int64
	lastCkptErr string
	ckptFrom    int64
	saving      *snapshotWrite
	obs         atomic.Pointer[observables]

	// Observability: the static instrument registry, the engine metric
	// bundle wired into OpenLiveConfig, the checkpoint-store bundle, the
	// daemon's own ingest counters, and the optional event-trace ring.
	reg       *obs.Registry
	met       *obs.FleetMetrics
	ingestEv  *obs.Counter
	swapEv    *obs.Counter
	replayLen *obs.Gauge
	tr        *obs.Trace
}

// config is everything that shapes a daemon: qmfleetd's flags less the
// process concerns main keeps (HTTP, signals, linger, exit codes).
type config struct {
	bundle    string // startup bundle
	events    string // event file, named in the report
	state     string // checkpoint directory ("" = no snapshots)
	resume    bool   // continue the log in state; without it, state must hold none
	manager   string
	admit     fleet.Admitter
	workers   int
	batch     int
	maxLevels int // 0 = the startup bundle's level count
	noise     float64
	trace     bool
}

// snapshotWrite is one snapshot being saved on its own goroutine: what
// its log line reports, and the outcome, which the goroutine sets
// before it closes done. It does not hold the snapshot, so the capture
// can be collected once it is encoded, while the write is in flight.
type snapshotWrite struct {
	why      string
	events   int64
	ingested int
	done     chan struct{}
	path     string
	err      error
}

// Why serve returned.
const (
	drained  = iota // the event stream ended
	signaled        // a signal arrived; checkpointed first
	killed          // the -kill-after line was ingested; checkpointed first
)

// maxEventLine bounds one NDJSON line; a longer one fails the read.
const maxEventLine = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("qmfleetd: ")
	bundlePath := flag.String("bundle", "", "startup controller bundle (qmcompile output, required)")
	eventsPath := flag.String("events", "", "NDJSON event file to serve (required)")
	stateDir := flag.String("state", "", "checkpoint directory (enables snapshots and bundle retention)")
	every := flag.Int64("every", 32, "engine event groups between periodic checkpoints (with -state)")
	resume := flag.Bool("resume", false, "resume from the newest valid snapshot in -state")
	manager := flag.String("manager", "relaxed", "manager instantiated from bundles: numeric, symbolic, relaxed")
	admitSpec := flag.String("admit", "all", "admission policy: all, cap=K[,queue=N] or budget=U[,queue=N]")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never changes results")
	batch := flag.Int("batch", fleet.DefaultBatchCycles, "cycles per scheduling batch; never changes results")
	maxLevels := flag.Int("max-levels", 0, "widest quality-level count any served bundle may have (0 = the startup bundle's)")
	noise := flag.Float64("noise", 0.3, "content model jitter amplitude, in [0, 1]")
	jsonPath := flag.String("json", "", "write the final report JSON here (atomic rename)")
	httpAddr := flag.String("http", "", "serve /healthz, /stats, /metrics and /debug/pprof on this address")
	killAfter := flag.Int("kill-after", 0, "fault injection: checkpoint and exit(3) after ingesting N events")
	tracePath := flag.String("trace", "", "write a Chrome trace JSON of engine events here on exit")
	linger := flag.Duration("linger", 0, "keep -http endpoints up this long after the run completes")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q; qmfleetd is configured by flags only", flag.Args())
	}
	if *bundlePath == "" || *eventsPath == "" {
		log.Fatal("-bundle and -events are required")
	}
	if *resume && *stateDir == "" {
		log.Fatal("-resume needs -state")
	}
	if *every <= 0 {
		log.Fatalf("-every must be a positive event interval, got %d", *every)
	}
	admit, err := fleet.ParseAdmitter(*admitSpec)
	if err != nil {
		log.Fatal(err)
	}
	d, err := newDaemon(config{
		bundle: *bundlePath, events: *eventsPath, state: *stateDir, resume: *resume,
		manager: *manager, admit: admit, workers: *workers, batch: *batch,
		maxLevels: *maxLevels, noise: *noise, trace: *tracePath != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(*eventsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sc := newEventScanner(f)
	if *resume {
		if err := d.tryResume(sc); err != nil {
			log.Fatal(err)
		}
	}
	d.publish()

	if *httpAddr != "" {
		go d.serveHTTP(*httpAddr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	end, err := d.serve(sc, *every, *killAfter, sig)
	if err != nil {
		log.Fatal(err)
	}
	if end != drained {
		d.writeTrace(*tracePath)
		if end == killed {
			log.Printf("kill-after %d: simulating crash (exit 3) at %d engine events", *killAfter, d.live.Events())
			os.Exit(3)
		}
		os.Exit(0)
	}

	res, err := d.live.Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := d.report(os.Stdout, res, *jsonPath); err != nil {
		log.Fatal(err)
	}
	d.writeTrace(*tracePath)
	if *linger > 0 && *httpAddr != "" {
		log.Printf("lingering %v for scrapers on %s", *linger, *httpAddr)
		time.Sleep(*linger)
	}
	if err := res.FleetResult().Err(); err != nil {
		log.Fatal(err)
	}
}

// newDaemon loads the startup bundle and starts an idle engine. The
// noise amplitude is range-checked and the manager resolved against the
// startup bundle, through the stream constructor every arrival uses,
// before anything is written to the state directory.
func newDaemon(cfg config) (*daemon, error) {
	// The negation also rejects NaN. An amplitude outside [0, 1] would
	// silently disable jitter (negative) or push the content model's
	// float-to-time conversion out of range (huge).
	if !(cfg.noise >= 0 && cfg.noise <= 1) {
		return nil, fmt.Errorf("-noise %v: want a jitter amplitude in [0, 1]", cfg.noise)
	}
	d := &daemon{
		cfg:     cfg,
		opt:     fleet.Options{Manager: cfg.manager, Overhead: sim.IPodOverhead, NoiseAmp: cfg.noise},
		bundles: map[uint64]*controller.Bundle{},
	}
	d.reg = obs.NewRegistry("qmfleetd")
	d.met = obs.NewFleetMetrics(d.reg)
	cmet := obs.NewCheckpointMetrics(d.reg, func() int64 { return time.Now().UnixNano() })
	d.ingestEv = d.reg.Counter("ingest_events", "NDJSON input events ingested.", obs.SerialOrder)
	d.swapEv = d.reg.Counter("bundle_swaps", "Hot controller-bundle swaps applied.", obs.SerialOrder)
	d.replayLen = d.reg.Gauge("resume_replay_events", "Event-file lines replayed by the last resume.", obs.SerialOrder)
	if cfg.trace {
		d.tr = obs.NewTrace(1 << 16)
	}

	// stateDir stays empty, so nothing is retained, until the startup
	// bundle has loaded and a stream has been built from it.
	boot, bootHash, err := d.loadBundle(cfg.bundle)
	if err != nil {
		return nil, err
	}
	if _, err := d.stream(boot, event{Cycles: 1}); err != nil {
		return nil, err
	}
	if cfg.state != "" {
		store := &checkpoint.Store{Dir: cfg.state, Logf: log.Printf, Met: cmet}
		if !cfg.resume {
			empty, err := store.Empty()
			if err != nil {
				return nil, err
			}
			if !empty {
				return nil, fmt.Errorf("state directory %s already holds checkpoints; pass -resume to continue from them, or use an empty directory", cfg.state)
			}
		}
		if err := os.MkdirAll(cfg.state, 0o755); err != nil {
			return nil, err
		}
		d.stateDir = cfg.state
		d.store = store
		if err := d.retain(boot, bootHash); err != nil {
			return nil, err
		}
	}
	d.activate(boot, bootHash)
	levels := cfg.maxLevels
	if levels == 0 {
		levels = boot.System().NumLevels()
	}
	// The fingerprint covers everything that shapes results except the
	// scheduler (workers/batch change wall-clock only) and the bundles
	// (recorded per stream in the snapshot metadata).
	d.fp = checkpoint.Fingerprint("qmfleetd", cfg.manager, cfg.admit.Name(),
		strconv.Itoa(levels), strconv.FormatFloat(cfg.noise, 'g', -1, 64))

	d.live = fleet.NewOpenLive(fleet.OpenLiveConfig{
		Admit: cfg.admit, Workers: cfg.workers, BatchCycles: cfg.batch, MaxLevels: levels,
		Obs: d.met, Trace: d.tr,
	})
	return d, nil
}

// newEventScanner reads an event file line by line. Resume and the
// serve loop share one scanner, so the file is read once.
func newEventScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxEventLine), maxEventLine)
	return sc
}

// decodeEvent parses one NDJSON line into an arrive or a swap event —
// the one decoder of ingest and of resume's replay.
func decodeEvent(raw []byte) (event, error) {
	var ev event
	if err := json.Unmarshal(raw, &ev); err != nil {
		return event{}, fmt.Errorf("bad event: %w", err)
	}
	if ev.Op != "arrive" && ev.Op != "swap" {
		return event{}, fmt.Errorf("unknown op %q", ev.Op)
	}
	return ev, nil
}

// serve ingests the events sc yields — the lines after any a resume
// consumed — checkpointing every `every` engine event groups. It
// returns early, after a checkpoint, when sig delivers (signaled) or
// once killAfter > 0 lines have been ingested (killed). Snapshots are
// written off the serving path; whatever way serve returns, it first
// waits for the last write and records its outcome, so a signaled or
// killed run stops only once its snapshot is durable or its failure
// logged.
func (d *daemon) serve(sc *bufio.Scanner, every int64, killAfter int, sig <-chan os.Signal) (int, error) {
	defer d.collectCheckpoint(true)
	for line := d.ingested + 1; sc.Scan(); line++ {
		select {
		case s := <-sig:
			d.checkpointNow("signal " + s.String())
			return signaled, nil
		default:
		}
		if err := d.ingest(sc.Bytes()); err != nil {
			return 0, fmt.Errorf("event %d: %w", line, err)
		}
		d.publish()
		d.collectCheckpoint(false)
		if d.store != nil && d.live.Events() >= d.ckptFrom+every {
			d.checkpointNow("interval")
		}
		if killAfter > 0 && d.ingested >= killAfter {
			d.checkpointNow("injected kill")
			return killed, nil
		}
	}
	return drained, sc.Err()
}

// writeTrace renders the event ring as Chrome trace JSON, atomically.
// A trace that fails to write must not fail the run: it is an
// observability artifact, not a result.
func (d *daemon) writeTrace(path string) {
	if d.tr == nil || path == "" {
		return
	}
	if err := checkpoint.WriteAtomic(path, d.tr.WriteChrome); err != nil {
		log.Printf("trace: %v", err)
	}
}

// ingest applies one NDJSON event to the engine.
func (d *daemon) ingest(raw []byte) error {
	ev, err := decodeEvent(raw)
	if err != nil {
		return err
	}
	d.ingested++
	d.ingestEv.Inc()
	if ev.Op == "swap" {
		b, h, err := d.loadBundle(ev.Bundle)
		if err != nil {
			return fmt.Errorf("swap: %w", err)
		}
		d.activate(b, h)
		d.swaps++
		d.swapEv.Inc()
		d.tr.Rec(obs.EvSwap, obs.NoTime, obs.NoStream, obs.NoWorker, int64(h))
		return nil
	}
	s, err := d.stream(d.active, ev)
	if err != nil {
		return err
	}
	if err := d.live.Feed(s, core.Time(ev.At)); err != nil {
		return err
	}
	d.bundleOf = append(d.bundleOf, int32(len(d.order)-1))
	return nil
}

// stream builds an arriving stream against bundle b with fleet's
// stream constructor.
func (d *daemon) stream(b *controller.Bundle, ev event) (fleet.Stream, error) {
	opt := d.opt
	opt.Cycles = ev.Cycles
	return fleet.BundleStream(b, ev.Name, ev.Seed, opt)
}

// loadBundle loads and hashes a bundle file and retains a copy of it.
func (d *daemon) loadBundle(path string) (*controller.Bundle, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	b, err := controller.Load(f)
	f.Close()
	if err != nil {
		return nil, 0, err
	}
	h, err := b.Hash()
	if err != nil {
		return nil, 0, err
	}
	if prev, ok := d.bundles[h]; ok {
		return prev, h, nil // identical bundle: swap is a no-op
	}
	if err := d.retain(b, h); err != nil {
		return nil, 0, err
	}
	d.bundles[h] = b
	return b, h, nil
}

// retain keeps a content-addressed copy of a bundle in the state
// directory, so a resume can rebuild streams against the exact bundle
// they were admitted under even if the original file has since changed.
func (d *daemon) retain(b *controller.Bundle, h uint64) error {
	if d.stateDir == "" {
		return nil
	}
	dst := d.bundleFile(h)
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		return nil
	}
	if err := checkpoint.WriteAtomic(dst, func(w io.Writer) error {
		_, werr := b.WriteTo(w)
		return werr
	}); err != nil {
		return fmt.Errorf("retain bundle %016x: %w", h, err)
	}
	return nil
}

func (d *daemon) bundleFile(h uint64) string {
	return filepath.Join(d.stateDir, fmt.Sprintf("bundle-%016x.json", h))
}

// activate makes a bundle the target of subsequent arrivals. In-flight
// streams are untouched: their runners keep the managers and tables
// they were admitted with.
func (d *daemon) activate(b *controller.Bundle, h uint64) {
	if d.activeH == h && d.active != nil {
		return
	}
	d.active = b
	d.activeH = h
	d.activeHex = fmt.Sprintf("%016x", h)
	d.order = append(d.order, h)
}

// checkpointNow captures the engine on the serving goroutine, which
// alone can quiesce it, and hands the capture to a goroutine that saves
// it to the store; a previous write still in flight is waited for
// first, so at most one is. A failed save is recorded, not fatal: the
// daemon keeps serving and /healthz reports 503 until a later snapshot
// succeeds — crash recovery is degraded to the last durable snapshot,
// which is exactly what the store's fallback walk already handles.
func (d *daemon) checkpointNow(why string) {
	if d.store == nil {
		return
	}
	d.collectCheckpoint(true)
	cap, err := d.live.Checkpoint()
	if err != nil {
		log.Fatalf("checkpoint (%s): %v", why, err)
	}
	// Both lists only grow and an entry is never rewritten, so the
	// snapshot shares them as they stand; the store writes only the
	// entries its log does not hold yet.
	snap := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Fingerprint:   d.fp,
			ArrivalCursor: d.ingested,
			BundleHashes:  d.order[:len(d.order):len(d.order)],
			StreamBundle:  d.bundleOf[:len(d.bundleOf):len(d.bundleOf)],
		},
		Capture: cap,
	}
	w := &snapshotWrite{why: why, events: cap.Events, ingested: d.ingested, done: make(chan struct{})}
	d.saving = w
	d.ckptFrom = cap.Events
	go func(snap *checkpoint.Snapshot) {
		w.path, w.err = d.store.Save(snap)
		close(w.done)
	}(snap)
}

// collectCheckpoint records the snapshot write in flight once it has
// finished: with wait it blocks until then, without it a write still
// running is left alone. Only a durable snapshot advances lastCkpt; a
// failed one re-arms the interval, so the next event checkpoints again.
func (d *daemon) collectCheckpoint(wait bool) {
	w := d.saving
	if w == nil {
		return
	}
	if wait {
		<-w.done
	} else {
		select {
		case <-w.done:
		default:
			return
		}
	}
	d.saving = nil
	if w.err != nil {
		d.lastCkptErr = w.err.Error()
		d.ckptFrom = d.lastCkpt
		d.publish()
		log.Printf("checkpoint (%s): %v", w.why, w.err)
		return
	}
	d.lastCkpt = w.events
	d.lastCkptErr = ""
	d.publish()
	log.Printf("checkpoint (%s): %s at %d engine events, %d ingested", w.why, w.path, w.events, w.ingested)
}

// tryResume loads the newest valid snapshot, rebuilds the fed
// population from the prefix of the event file it consumed — read from
// sc, which the serve loop then continues — against the recorded
// bundles, and restores the engine. No snapshot (or none valid) is a
// fresh start, not an error.
func (d *daemon) tryResume(sc *bufio.Scanner) error {
	snap, path, err := d.store.LoadLatest(d.fp)
	if err != nil {
		return err
	}
	if snap == nil {
		log.Printf("resume: no usable snapshot in %s, starting fresh", d.stateDir)
		return nil
	}
	if err := checkMeta(&snap.Meta); err != nil {
		return fmt.Errorf("resume from %s: %w", path, err)
	}
	// Rebind the activation list to retained bundle copies.
	d.order = d.order[:0]
	for _, h := range snap.Meta.BundleHashes {
		_, bh, err := d.loadBundle(d.bundleFile(h))
		if err != nil {
			return fmt.Errorf("resume: bundle %016x: %w", h, err)
		}
		if bh != h {
			return fmt.Errorf("resume: retained bundle %016x re-hashes to %016x", h, bh)
		}
		d.order = append(d.order, h)
	}
	d.active = d.bundles[d.order[len(d.order)-1]]
	d.activeH = d.order[len(d.order)-1]
	d.activeHex = fmt.Sprintf("%016x", d.activeH)

	d.bundleOf = append([]int32(nil), snap.Meta.StreamBundle...)
	var streams []fleet.Stream
	var arrivals []core.Time
	for line := 1; line <= snap.Meta.ArrivalCursor; line++ {
		if !sc.Scan() {
			return fmt.Errorf("resume: event file has %d lines, snapshot consumed %d", line-1, snap.Meta.ArrivalCursor)
		}
		ev, err := decodeEvent(sc.Bytes())
		if err != nil {
			return fmt.Errorf("resume: replay event %d: %w", line, err)
		}
		if ev.Op == "swap" {
			// The activation is in the snapshot metadata; the swap counts
			// as it did when ingested.
			d.swaps++
			continue
		}
		k := len(streams)
		if k >= len(d.bundleOf) {
			return fmt.Errorf("resume: snapshot records %d stream-bundle bindings, replay found more arrivals", len(d.bundleOf))
		}
		s, err := d.stream(d.bundles[d.order[d.bundleOf[k]]], ev)
		if err != nil {
			return fmt.Errorf("resume: replay event %d: %w", line, err)
		}
		streams = append(streams, s)
		arrivals = append(arrivals, core.Time(ev.At))
	}
	if len(streams) != len(d.bundleOf) {
		return fmt.Errorf("resume: snapshot records %d arrivals, replay found %d", len(d.bundleOf), len(streams))
	}
	if err := d.live.Restore(snap.Capture, streams, arrivals); err != nil {
		return fmt.Errorf("resume from %s: %w", path, err)
	}
	d.ingested = snap.Meta.ArrivalCursor
	d.lastCkpt = snap.Capture.Events
	d.ckptFrom = d.lastCkpt
	d.replayLen.Set(int64(snap.Meta.ArrivalCursor))
	log.Printf("resumed from %s: %d engine events, %d ingested events, %d streams",
		path, snap.Capture.Events, d.ingested, d.live.Population())
	return nil
}

// checkMeta rejects snapshot metadata that cannot index the bundle
// activation list: resume needs at least one activation (the active
// bundle is the last) and a valid activation for every stream. A
// snapshot passes the CRC and the fingerprint check with such metadata
// only if its writer was faulty, so it is an error, not a fresh start.
func checkMeta(m *checkpoint.Meta) error {
	if len(m.BundleHashes) == 0 {
		return fmt.Errorf("snapshot records no bundle activations")
	}
	for k, b := range m.StreamBundle {
		if b < 0 || int(b) >= len(m.BundleHashes) {
			return fmt.Errorf("stream %d is bound to bundle %d of %d recorded activations", k, b, len(m.BundleHashes))
		}
	}
	return nil
}

// publish replaces the HTTP-served observables snapshot. It runs on
// the engine's owner goroutine, which is what lets it read owner-only
// engine state (Backlog, Events, Population); the HTTP handlers read
// only the atomically swapped snapshot.
func (d *daemon) publish() {
	d.obs.Store(&observables{
		Ingested:            d.ingested,
		EngineEvents:        d.live.Events(),
		Population:          d.live.Population(),
		Backlog:             d.live.Backlog(),
		ActiveBundle:        d.activeHex,
		Swaps:               d.swaps,
		LastCheckpoint:      d.lastCkpt,
		LastCheckpointError: d.lastCkptErr,
	})
}

func (d *daemon) serveHTTP(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		o := d.obs.Load()
		if o.LastCheckpointError != "" {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: last checkpoint failed: %s\n", o.LastCheckpointError)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "ok checkpoint_age_events=%d backlog=%d population=%d\n",
			o.EngineEvents-o.LastCheckpoint, o.Backlog, o.Population)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.obs.Load())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := d.reg.WriteProm(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Fatal(err)
	}
}

// report prints the final open-system table to w and persists the run
// document atomically — the artifacts a kill/resume check compares with
// an uninterrupted reference.
func (d *daemon) report(w io.Writer, res *fleet.OpenResult, jsonPath string) error {
	flat := res.FleetResult()
	fsum := report.Aggregate(flat)
	open := metrics.SummarizeOpen(res.OpenObservations)
	n := d.live.Population()
	doc := &metrics.FleetDoc{
		Label:       "qmfleetd",
		Mode:        "open",
		Streams:     n,
		Workers:     sim.EffectiveWorkers(n, d.cfg.workers),
		BatchCycles: d.cfg.batch,
		Arrivals:    "ndjson:" + filepath.Base(d.cfg.events),
		Admission:   d.cfg.admit.Name(),
		Summary:     fsum,
		Open:        &open,
	}
	// The document commits on its own goroutine while the table
	// renders; the table prints only once the commit has succeeded.
	var commit chan error
	if jsonPath != "" && flat.Err() == nil {
		commit = make(chan error, 1)
		go func() { commit <- checkpoint.WriteAtomic(jsonPath, doc.WriteJSON) }()
	}
	table := report.OpenTable(res, open, flat, fsum)
	if commit != nil {
		if err := <-commit; err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "served              %d events → %d streams (%d swaps), %d engine events\n",
		d.ingested, n, d.swaps, d.live.Events())
	fmt.Fprint(w, table)
	return nil
}
