// Command qmfleet runs a fleet of independent quality-managed streams
// on the concurrent multi-stream engine and prints the per-stream and
// fleet-wide report. It is the scale-out counterpart of qmsim: one
// compiled controller (shared immutable tables), N streams with their
// own cycle clocks and content seeds, a goroutine worker pool sharded
// by slot range. Per-stream results are byte-identical to serial qmsim runs
// at the same derived seeds, whatever the worker count.
//
// Usage:
//
//	qmfleet [-streams 16] [-workers 0] [-batch 32] [-cycles 8] [-seed 1]
//	        [-csv records.csv] [-json fleet.json]
//	        [-arrivals fixed|poisson|bursty|trace:file.csv]
//	        [-rate 1] [-burst 4] [-admit all|cap=K[,queue=N]|budget=U[,queue=N]]
//	        [-instances 1] [-route round-robin|least-backlog|weighted|affinity]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	        [-metrics out.prom] [-trace out.json]
//	        [-mix encoder|workloads | -bundle controller.json [-manager relaxed]]
//
// By default the fleet is closed: all streams start at t = 0 and run to
// completion. -arrivals opens the system — streams arrive over simulated
// time from the selected deterministic process (rate/burst are relative
// to the first stream's cycle period), pass the -admit controller
// (queueing and shedding included) and depart when done; the report
// gains lifecycle, backlog and sojourn sections. A fixed seed produces
// byte-identical traces and admission decisions at any -workers/-batch.
//
// -instances > 1 scales an open run out across M parallel engine
// instances behind the virtual-time router (internal/cluster): each
// arriving stream is assigned to an instance by the -route policy, every
// instance runs its own -workers pool and -admit controller, and the
// report gains per-instance and fairness sections. Routing decisions are
// a pure function of the serial event order, so results stay
// byte-identical at any -workers/-batch — and identical to
// the single-goroutine router spec. With -metrics, every fleet
// instrument gains one instance="i" series per instance.
//
// -metrics writes the run's engine counters (admission verdicts,
// batches, steals, parks, flush sizes, checkpoint-store activity) as
// Prometheus text exposition after the run; -trace records engine
// events into a bounded ring stamped with virtual instants and writes
// Chrome trace JSON. Neither changes results: the engine is
// property-tested byte-identical with observability on and off.
//
// Streams run zero-retention: each feeds a StatsSink and the report is
// computed from streamed aggregates, so memory is O(streams) regardless
// of run length. -csv streams every action record to the given file as
// it is observed (rows of different streams interleave in worker order
// and carry a stream column). -json persists the run — config
// headline, fleet summary, open-system summary — for cmd/figures.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qmfleet: ")
	streams := flag.Int("streams", 16, "number of independent streams")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	batch := flag.Int("batch", fleet.DefaultBatchCycles, "cycles a worker advances one stream before moving to the next in its range")
	cycles := flag.Int("cycles", 8, "cycles (frames) per stream")
	seed := flag.Uint64("seed", 1, "base content seed; stream k uses a seed derived from it")
	mix := flag.String("mix", "encoder", "stream mix: encoder (paper fleet) or workloads (catalog mix)")
	bundlePath := flag.String("bundle", "", "run the fleet from a compiled controller bundle (qmcompile output) instead of -mix")
	manager := flag.String("manager", "relaxed", "manager instantiated from the bundle: numeric, symbolic, relaxed (with -bundle)")
	csvPath := flag.String("csv", "", "stream per-action records to this CSV file with zero retention")
	arrivalsSpec := flag.String("arrivals", "", "open the system with this arrival process: fixed, poisson, bursty, or trace:file.csv (default: closed fleet, all streams at t=0)")
	rate := flag.Float64("rate", 1, "mean arrivals per stream period (fixed/poisson/bursty)")
	burst := flag.Float64("burst", 4, "burstiness of the bursty process: peak-to-mean arrival-rate ratio ≥ 1")
	admitSpec := flag.String("admit", "all", "admission policy: all, cap=K[,queue=N] or budget=U[,queue=N] (with -arrivals)")
	instances := flag.Int("instances", 1, "parallel engine instances behind the virtual-time router (with -arrivals)")
	routeSpec := flag.String("route", "round-robin", "routing policy across instances: round-robin, least-backlog, weighted or affinity (with -instances)")
	jsonPath := flag.String("json", "", "persist the run (config, fleet summary, open-system summary) as JSON for cmd/figures")
	ckptDir := flag.String("checkpoint", "", "checkpoint the run into this directory (open stats runs only); with -resume, continue from the newest valid snapshot")
	every := flag.Int64("every", 64, "engine event groups between checkpoints (with -checkpoint)")
	resumeRun := flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint before running")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file (go tool pprof)")
	metricsPath := flag.String("metrics", "", "write the run's engine metrics as Prometheus text exposition to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace JSON of engine events to this file")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q; qmfleet is configured by flags only", flag.Args())
	}
	if *streams <= 0 {
		log.Fatalf("-streams must be a positive stream count, got %d", *streams)
	}
	if *cycles <= 0 {
		log.Fatalf("-cycles must be a positive cycle count, got %d", *cycles)
	}
	if *workers < 0 {
		log.Fatalf("-workers must be ≥ 0 (0 selects GOMAXPROCS), got %d", *workers)
	}
	if *batch <= 0 {
		log.Fatalf("-batch must be a positive cycle batch, got %d", *batch)
	}
	if *rate <= 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		log.Fatalf("-rate must be a positive arrival rate, got %v", *rate)
	}
	if *burst < 1 || math.IsNaN(*burst) || math.IsInf(*burst, 0) {
		log.Fatalf("-burst must be a peak-to-mean ratio ≥ 1, got %v", *burst)
	}
	if *ckptDir != "" {
		if *arrivalsSpec == "" {
			log.Fatal("-checkpoint snapshots the open engine; add -arrivals")
		}
		if *csvPath != "" {
			log.Fatal("-checkpoint cannot replay records already streamed to -csv; drop one of the two")
		}
		if *every <= 0 {
			log.Fatalf("-every must be a positive event interval, got %d", *every)
		}
	}
	if *resumeRun && *ckptDir == "" {
		log.Fatal("-resume needs -checkpoint")
	}
	admitter, err := fleet.ParseAdmitter(*admitSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *instances <= 0 {
		log.Fatalf("-instances must be a positive instance count, got %d", *instances)
	}
	policy, err := cluster.ParsePolicy(*routeSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *instances > 1 {
		if *arrivalsSpec == "" {
			log.Fatal("-instances scales out the open engine; add -arrivals")
		}
		if *csvPath != "" {
			log.Fatal("-csv streams a single engine's records; drop it or -instances")
		}
		if *ckptDir != "" {
			log.Fatal("-checkpoint snapshots a single engine; drop it or -instances")
		}
		if *tracePath != "" {
			log.Fatal("-trace records a single engine's events; drop it or -instances")
		}
	}
	// Open-system flags must not be silently ignored: an explicitly set
	// -rate/-burst/-admit without the arrival process (or with one that
	// does not consume it) would report a run the user did not ask for.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["route"] && *instances <= 1 {
		log.Fatalf("-route %s routes across instances; add -instances", *routeSpec)
	}
	if *arrivalsSpec == "" {
		for _, name := range []string{"rate", "burst"} {
			if set[name] {
				log.Fatalf("-%s shapes an arrival process; add -arrivals", name)
			}
		}
		if *admitSpec != "all" {
			log.Fatalf("-admit %s needs an open system; add -arrivals", *admitSpec)
		}
	} else {
		if strings.HasPrefix(*arrivalsSpec, "trace:") && (set["rate"] || set["burst"]) {
			log.Fatal("-rate/-burst do not apply to a trace replay; the recorded instants are used as-is")
		}
		if set["burst"] && *arrivalsSpec != "bursty" {
			log.Fatalf("-burst only shapes -arrivals bursty, not %q", *arrivalsSpec)
		}
	}

	var reg *obs.Registry
	var cmet *obs.CheckpointMetrics
	if *metricsPath != "" {
		reg = obs.NewRegistry("qmfleet")
		cmet = obs.NewCheckpointMetrics(reg, func() int64 { return time.Now().UnixNano() })
	}
	var etr *obs.Trace
	if *tracePath != "" {
		etr = obs.NewTrace(1 << 16)
	}

	var cfg fleet.OpenConfig
	cfg.Workers = *workers
	cfg.BatchCycles = *batch
	if reg != nil && *instances == 1 {
		cfg.Obs = obs.NewFleetMetrics(reg)
	}
	cfg.Trace = etr
	label := *mix
	switch {
	case *bundlePath != "":
		f, err := os.Open(*bundlePath)
		if err != nil {
			log.Fatal(err)
		}
		b, err := controller.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Streams, err = fleet.FromBundle(b, *streams, fleet.Options{
			Manager:  *manager,
			Cycles:   *cycles,
			Overhead: sim.IPodOverhead,
			BaseSeed: *seed,
			NoiseAmp: 0.3,
		})
		if err != nil {
			log.Fatal(err)
		}
		label = fmt.Sprintf("bundle %s (%s)", *bundlePath, *manager)
	case *mix == "encoder":
		s := experiment.Paper(*seed)
		s.Cycles = *cycles
		var err error
		cfg.Streams, err = s.FleetStreams(*seed, *streams)
		if err != nil {
			log.Fatal(err)
		}
	case *mix == "workloads":
		var err error
		cfg.Streams, err = experiment.WorkloadFleet(*seed, *streams, *cycles)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -mix %q (want encoder or workloads)", *mix)
	}

	mode := "streaming stats, zero retention"
	var csvFile *checkpoint.AtomicFile
	var csvBuf *bufio.Writer
	var cw *sim.CSVWriter
	if *csvPath != "" {
		f, err := checkpoint.NewAtomicFile(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Abort() // no-op once committed; a fatal exit leaves the old file intact
		csvFile, csvBuf = f, bufio.NewWriterSize(f, 1<<20)
		cw = sim.NewCSVWriter(csvBuf)
		cfg.Export = func(_ int, name string) sim.Sink { return cw.Stream(name) }
		mode += ", CSV export"
	}

	doc := &metrics.FleetDoc{
		Label:       label,
		Mode:        "closed",
		Streams:     *streams,
		Workers:     sim.EffectiveWorkers(*streams, *workers),
		BatchCycles: *batch,
		Cycles:      *cycles,
		Seed:        *seed,
	}

	var proc arrivals.Process
	if *arrivalsSpec != "" {
		proc, err = buildProcess(*arrivalsSpec, &cfg, *rate, *burst, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Arrivals, err = proc.Times(*streams)
		if err != nil {
			// A generated schedule fails only when it runs past the end
			// of simulated time; a trace replay fails when it is short.
			if _, replay := proc.(*arrivals.Trace); !replay {
				log.Fatalf("%v; use a larger -rate or fewer -streams", err)
			}
			log.Fatal(err)
		}
		cfg.Admit = admitter
		doc.Mode = "open"
		doc.Arrivals = proc.Name()
		doc.Admission = admitter.Name()
	}

	// Profiles bracket the run itself — stream setup and table compilation
	// are excluded, so a hot-path regression shows undiluted.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}

	start := time.Now()
	var table string
	var flat *fleet.Result
	var fsum metrics.FleetSummary
	if proc != nil && *instances > 1 {
		var obsBundles []*obs.FleetMetrics
		if reg != nil {
			obsBundles = make([]*obs.FleetMetrics, *instances)
			for i := range obsBundles {
				obsBundles[i] = obs.NewFleetMetrics(reg.WithLabels("instance", strconv.Itoa(i)))
			}
		}
		cres, err := cluster.Run(cluster.Config{
			Streams:     cfg.Streams,
			Arrivals:    cfg.Arrivals,
			Instances:   *instances,
			Route:       policy,
			Admit:       admitter,
			Workers:     *workers,
			BatchCycles: *batch,
			Seed:        *seed,
			Obs:         obsBundles,
		})
		if err != nil {
			log.Fatal(err)
		}
		flat = cres.FleetResult()
		fsum = report.Aggregate(flat)
		cs := cres.Summarize()
		table = report.ClusterTable(&cs, flat, fsum)
		doc.Open = &cs.Global
		doc.Cluster = &cs
	} else if proc != nil {
		var res *fleet.OpenResult
		var err error
		if *ckptDir != "" {
			res, err = runCheckpointed(cfg, *ckptDir, *every, *resumeRun, doc, cmet)
		} else {
			res, err = fleet.OpenRunStats(cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		flat = res.FleetResult()
		fsum = report.Aggregate(flat)
		open := metrics.SummarizeOpen(res.OpenObservations)
		table = report.OpenTable(res, open, flat, fsum)
		doc.Open = &open
	} else {
		res, err := fleet.RunStats(fleet.Config{Streams: cfg.Streams, Workers: cfg.Workers, BatchCycles: cfg.BatchCycles,
			Export: cfg.Export, Obs: cfg.Obs, Trace: cfg.Trace})
		if err != nil {
			log.Fatal(err)
		}
		flat = res
		fsum = report.Aggregate(flat)
		table = report.FleetTable(res, fsum)
	}
	elapsed := time.Since(start)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	doc.Summary = fsum
	runErr := flat.Err()

	if cw != nil {
		if err := cw.Err(); err != nil {
			log.Fatal(err)
		}
		if err := csvBuf.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := csvFile.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	// A failed run persists no artifact: a FleetDoc whose aggregate
	// silently excluded errored streams would present a partial run as a
	// complete one. The error itself is reported after the table. The
	// write is atomic — an existing artifact is never replaced by a torn
	// one.
	if *jsonPath != "" && runErr == nil {
		if err := checkpoint.WriteAtomic(*jsonPath, doc.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
	// Observability artifacts are written even for a failed run: the
	// metrics and events up to the failure are the debugging record.
	if reg != nil {
		if err := checkpoint.WriteAtomic(*metricsPath, reg.WriteProm); err != nil {
			log.Fatal(err)
		}
	}
	if etr != nil {
		if err := checkpoint.WriteAtomic(*tracePath, etr.WriteChrome); err != nil {
			log.Fatal(err)
		}
	}

	system := "closed system"
	if proc != nil {
		system = fmt.Sprintf("open system, %s, admit %s", doc.Arrivals, doc.Admission)
		if *instances > 1 {
			system += fmt.Sprintf(", %d instances, route %s", *instances, *routeSpec)
		}
	}
	fmt.Printf("fleet               %d streams × %d cycles, %d workers, batch %d (%s; %s)\n",
		*streams, *cycles, doc.Workers, *batch, label, mode)
	fmt.Printf("scenario            %s\n", system)
	fmt.Printf("wall-clock          %v\n\n", elapsed.Round(time.Millisecond))
	fmt.Print(table)
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// runCheckpointed is the crash-safe form of the open stats run: it
// appends a record to the directory's checkpoint log every `every`
// event groups and, when resume is set, first folds the log into the
// newest valid snapshot whose fingerprint matches this invocation.
// Without resume, the directory must hold no checkpoints, so a fresh
// run never adopts or overwrites another run's. The fingerprint covers
// everything that determines results — mix, population, cycles, seed,
// arrival process, admission policy — but not -workers/-batch, which
// only change wall-clock time: a snapshot taken at one scheduler shape
// resumes correctly at any other.
func runCheckpointed(cfg fleet.OpenConfig, dir string, every int64, resume bool, doc *metrics.FleetDoc, cmet *obs.CheckpointMetrics) (*fleet.OpenResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store := &checkpoint.Store{Dir: dir, Logf: log.Printf, Met: cmet}
	if !resume {
		empty, err := store.Empty()
		if err != nil {
			return nil, err
		}
		if !empty {
			return nil, fmt.Errorf("checkpoint directory %s already holds checkpoints; pass -resume to continue from them, or use an empty directory", dir)
		}
	}
	fp := checkpoint.Fingerprint("qmfleet", doc.Label,
		strconv.Itoa(doc.Streams), strconv.Itoa(doc.Cycles),
		strconv.FormatUint(doc.Seed, 10), doc.Arrivals, doc.Admission)
	var resumeCap *fleet.OpenCapture
	if resume {
		snap, path, err := store.LoadLatest(fp)
		if err != nil {
			return nil, err
		}
		if snap == nil {
			log.Printf("resume: no usable snapshot in %s, starting fresh", dir)
		} else {
			log.Printf("resuming from %s (%d engine events)", path, snap.Capture.Events)
			resumeCap = snap.Capture
		}
	}
	return fleet.OpenRunStatsCheckpointed(cfg, resumeCap, every, func(c *fleet.OpenCapture) error {
		_, err := store.Save(&checkpoint.Snapshot{
			Meta:    checkpoint.Meta{Fingerprint: fp, ArrivalCursor: c.NextArrival},
			Capture: c,
		})
		return err
	})
}

// buildProcess maps the -arrivals/-rate/-burst flags to an arrival
// process. Rates are relative to the reference period — the first
// stream's resolved cycle period — so "-rate 1" means on average one
// stream arrives per frame time.
func buildProcess(spec string, cfg *fleet.OpenConfig, rate, burst float64, seed uint64) (arrivals.Process, error) {
	r := &cfg.Streams[0].Runner
	period := r.ResolvedPeriod()
	if period <= 0 {
		return nil, fmt.Errorf("cannot derive a reference period from stream %q", cfg.Streams[0].Name)
	}
	if path, ok := strings.CutPrefix(spec, "trace:"); ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := arrivals.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return tr, nil
	}
	// Go leaves the conversion of an out-of-range float to an integer to
	// the implementation, so a gap or dwell past TimeInf is rejected first.
	mean := math.Round(float64(period) / rate)
	if mean >= float64(core.TimeInf) {
		return nil, fmt.Errorf("-rate %v puts the mean arrival gap beyond the longest representable time; use a larger rate", rate)
	}
	gap := core.Time(mean)
	if gap < 1 {
		return nil, fmt.Errorf("-rate %v means more than one arrival per tick of the reference period %v; use a smaller rate", rate, period)
	}
	switch {
	case spec == "fixed":
		return arrivals.Fixed{Period: gap}, nil
	case spec == "poisson":
		return arrivals.Poisson{MeanGap: gap, Seed: sim.Mix64(seed ^ 0xA5A5A5A5)}, nil
	case spec == "bursty":
		if burst <= 1 {
			return nil, fmt.Errorf("-arrivals bursty needs -burst > 1 (a ratio of 1 is plain poisson), got %v", burst)
		}
		// Peak rate is burst × the mean rate; the ON duty cycle 1/burst
		// restores the configured mean. Dwell means span a few periods
		// so bursts hold several arrivals.
		gapOn := core.Time(math.Round(float64(gap) / burst))
		if gapOn < 1 {
			return nil, fmt.Errorf("-rate %v with -burst %v means more than one peak arrival per tick; lower the rate or the burst ratio", rate, burst)
		}
		on := 4 * period
		dwell := math.Round(float64(on) * (burst - 1))
		if dwell >= float64(core.TimeInf) {
			return nil, fmt.Errorf("-burst %v puts the off dwell beyond the longest representable time; use a smaller burst", burst)
		}
		off := core.Time(dwell)
		if off < 1 {
			return nil, fmt.Errorf("-burst %v is too close to 1: the off dwell rounds below one tick; raise the ratio or use -arrivals poisson", burst)
		}
		return arrivals.Bursty{
			GapOn:   gapOn,
			MeanOn:  on,
			MeanOff: off,
			Seed:    sim.Mix64(seed ^ 0x5A5A5A5A),
		}, nil
	}
	return nil, fmt.Errorf("unknown -arrivals %q (want fixed, poisson, bursty or trace:file.csv)", spec)
}
