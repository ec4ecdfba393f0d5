// Command perfbench is the repository's benchmark of record. One
// invocation runs one workload for a fixed measuring time, checks every
// run's outputs against a reference computation, and prints its metrics
// with their units; the last line of standard output is a JSON object
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced pass prints the per-layer ones instead. See README.md
// for the workloads, the metrics and the layer map. Normally started
// through run.sh, which builds this program and qmfleetd first.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload receives: the seed its inputs derive from,
// the measuring time, and a private scratch directory.
type env struct {
	seed     uint64
	seconds  time.Duration
	dir      string // per-invocation scratch directory inside the checkout
	qmfleetd string // daemon binary built from the tree under test
	inputs   string // hex SHA-256 of the generated inputs, set by the workload
}

// outcome is one invocation's result. Streams count as attempted once
// per run they take part in; failed counts those that errored,
// disagreed with the reference, or belonged to a run the watchdog
// killed. The outputs are correct when none failed.
type outcome struct {
	attempted int
	failed    int
	names     []string
	values    map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{values: map[string]metricValue{}}
}

func (o *outcome) set(name, unit string, v float64) {
	if _, ok := o.values[name]; !ok {
		o.names = append(o.names, name)
	}
	o.values[name] = metricValue{Value: v, Unit: unit}
}

// runs tallies the streams of one measured run into the outcome.
func (o *outcome) runs(streams, failed int) {
	o.attempted += streams
	o.failed += failed
}

type workload struct {
	run   func(e *env) (*outcome, error)
	trace func(e *env) (*outcome, error)
}

var byName = map[string]workload{
	"closed-encoder":   {runClosed, traceClosed},
	"serve-checkpoint": {runServe, traceServe},
	"cluster-mix":      {runCluster, traceCluster},
}

func main() {
	name := flag.String("workload", "", "closed-encoder, serve-checkpoint or cluster-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for inputs and state")
	qmfleetd := flag.String("qmfleetd", "", "qmfleetd binary built from the tree under test")
	flag.Parse()

	w, ok := byName[*name]
	if !ok {
		fatalf("unknown -workload %q (want closed-encoder, serve-checkpoint or cluster-mix)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if *qmfleetd == "" {
		fatalf("-qmfleetd is required")
	}
	// Absolute, because qmfleetd runs with this directory as its working
	// directory and receives paths into it.
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace)))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir, qmfleetd: *qmfleetd}

	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	o, err := run(e)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	// Generated inputs and snapshots are large; the watchdog's stack
	// dumps are the only files worth keeping.
	cleanScratch(dir)

	ctx := map[string]any{
		"workload":      *name,
		"seed":          *seed,
		"trace":         *trace == 1,
		"inputs_sha256": e.inputs,
		"host":          hostShape(dir),
	}
	line, err := json.Marshal(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("context %s\n", line)
	for _, n := range o.names {
		v := o.values[n]
		fmt.Printf("metric %-32s %16.6g %s\n", n, v.Value, v.Unit)
	}
	res, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.values,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(res))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// cleanScratch removes everything in dir but watchdog stack dumps.
func cleanScratch(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".stacks") {
			os.RemoveAll(filepath.Join(dir, ent.Name()))
		}
	}
}

// hostShape records what the numbers depend on besides the code.
func hostShape(stateDir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"state_fs":   fsType(stateDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x01021997: "9p",
		0x6A656A63: "virtiofs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// hashInputs returns the hex SHA-256 over the given input blobs, each
// length-prefixed so that blob boundaries are part of the identity.
func hashInputs(blobs ...[]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// guard runs fn on its own goroutine and waits at most limit for it to
// return. On a timeout it writes every goroutine's stack to standard
// error and to label.stacks in dir, and reports false: the run is
// abandoned — its goroutines stay parked until the process exits — and
// the caller counts every stream of it as failed, so a hang becomes a
// counted failure instead of a stalled benchmark.
func guard(dir, label string, limit time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
	}
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	keepStacks(dir, label, limit, buf.Bytes())
	return false
}

func keepStacks(dir, label string, limit time.Duration, stacks []byte) {
	path := filepath.Join(dir, label+".stacks")
	if err := os.WriteFile(path, stacks, 0o644); err != nil {
		logf("watchdog: %v", err)
	}
	logf("watchdog: %s ran past %v and was killed; goroutine stacks follow and are kept in %s", label, limit, path)
	os.Stderr.Write(stacks)
}

// peakRSSMB is the benchmark process's own peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// measure repeats a run until the measuring time is spent, and at least
// minRuns times. run reports false to stop early: the watchdog killed it.
func measure(e *env, minRuns int, run func(i int) bool) {
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < e.seconds; i++ {
		if !run(i) {
			return
		}
	}
}

// writeFile writes data with a plain create-write-close; inputs need no
// crash safety.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
