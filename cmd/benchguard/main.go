// Command benchguard compares a fresh BENCH_fleet.json against the
// committed BENCH_baseline.json and fails when any matching row
// regressed in ns/action beyond the tolerance — the CI tripwire that
// keeps hot-path regressions from landing silently.
//
// Rows match on (name, streams, workers, cycles, batch_cycles,
// num_cpu, gomaxprocs): a benchmark row is only comparable against a
// baseline produced by the same configuration on the same host shape. Rows
// without a match — a new benchmark, or CI running on different
// hardware than the committed baseline — are reported and skipped.
//
// Cross-host runs still get a tripwire through -self: a pair of row
// names compared *within the fresh artifact* — produced on one host in
// one run, so the ratio is meaningful wherever CI executes. The shipped
// CI uses it to assert the continuous open engine never falls behind
// its serial spec.
//
// Multi-core scaling gets its own within-artifact assertion through
// -speedup: a row:reference pair (repeatable) where the reference is
// the slow shape (say workers=1) and the row the parallel one (say
// workers=4); the guard requires reference ns/action ÷ row ns/action ≥
// -min-speedup. Like -self it compares inside the fresh artifact, so
// it holds on any host — but it is only meaningful where the hardware
// can parallelize at all, so pairs are skipped (not failed) when the
// fresh rows report fewer than -speedup-min-cpus CPUs. A shortfall is
// a distinct exit status: "the engine stopped scaling" is a different
// failure from "a row got slower" and CI may gate them differently.
//
// Usage:
//
// Observability overhead gets the same treatment through -overhead: a
// row:reference pair (repeatable) where the row is the metrics-enabled
// shape of a benchmark and the reference its disabled twin, compared
// within the fresh artifact. The guard fails when row ns/action exceeds
// reference × (1 + -max-overhead) — the contract that the allocation-
// free instrument layer stays effectively free on the hot path.
//
// Usage:
//
//	benchguard [-baseline BENCH_baseline.json] [-fresh BENCH_fleet.json]
//	           [-max-regress 0.25] [-self row:reference] [-max-self-ratio 1.25]
//	           [-speedup row:reference]... [-min-speedup 1.8] [-speedup-min-cpus 4]
//	           [-overhead row:reference]... [-max-overhead 0.05]
//
// -max-regress is the tolerated fractional slowdown (0.25 = fail beyond
// +25% ns/action). Improvements and matches within tolerance print as a
// table either way, so the CI log doubles as a perf trajectory record.
//
// Exit status:
//
//	0  every matching row within tolerance (and -self within bound, and
//	   every -speedup pair at or above -min-speedup or skipped)
//	1  a matching row regressed, or the -self ratio exceeded its bound
//	2  usage or artifact-loading error
//	3  zero rows match the baseline host shape — nothing was compared,
//	   so a green run proves nothing; CI distinguishes this from a pass
//	   instead of treating a foreign-host no-op as a guarantee
//	4  a -speedup pair fell short of -min-speedup on a host with enough
//	   CPUs — the parallel engine stopped scaling
//	5  an -overhead pair exceeded -max-overhead — enabling metrics is no
//	   longer effectively free on the hot path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Exit statuses; see the package comment.
const (
	exitOK         = 0
	exitRegression = 1
	exitUsage      = 2
	exitNoMatch    = 3
	exitSpeedup    = 4
	exitOverhead   = 5
)

// row mirrors the fleet bench harness's artifact schema; unknown fields
// are ignored so the guard survives additive schema growth.
type row struct {
	Name        string  `json:"name"`
	Streams     int     `json:"streams"`
	Workers     int     `json:"workers"`
	BatchCycles int     `json:"batch_cycles"`
	Cycles      int     `json:"cycles"`
	NumCPU      int     `json:"num_cpu"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	NsPerAction float64 `json:"ns_per_action"`
}

// key is the row-matching identity: the workload configuration plus the
// host shape that produced the number.
type key struct {
	name                       string
	streams, workers, batch    int
	cycles, numCPU, gomaxprocs int
}

func (r row) key() key {
	return key{r.Name, r.Streams, r.Workers, r.BatchCycles, r.Cycles, r.NumCPU, r.Gomaxprocs}
}

func load(path string) ([]row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole guard behind an injectable (args, stdout, stderr) so
// the exit-status contract is unit-testable.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchguard: "+format+"\n", a...)
		return exitUsage
	}
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_baseline.json", "committed baseline artifact")
	fresh := fs.String("fresh", "BENCH_fleet.json", "freshly produced bench artifact")
	maxRegress := fs.Float64("max-regress", 0.25, "tolerated fractional ns/action slowdown before failing")
	self := fs.String("self", "", "row:reference pair compared within the fresh artifact (host-independent tripwire)")
	maxSelfRatio := fs.Float64("max-self-ratio", 1.25, "tolerated ns/action ratio of the -self row over its reference")
	var speedups pairList
	fs.Var(&speedups, "speedup", "row:reference pair whose reference-over-row ns/action ratio must reach -min-speedup (repeatable; compared within the fresh artifact)")
	minSpeedup := fs.Float64("min-speedup", 1.8, "minimum reference÷row ns/action ratio every -speedup pair must reach")
	speedupMinCPUs := fs.Int("speedup-min-cpus", 4, "skip -speedup pairs when the fresh rows report fewer CPUs than this")
	var overheads pairList
	fs.Var(&overheads, "overhead", "row:reference pair whose row-over-reference ns/action excess must stay within -max-overhead (repeatable; compared within the fresh artifact)")
	maxOverhead := fs.Float64("max-overhead", 0.05, "tolerated fractional ns/action excess of every -overhead row over its reference")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		return fail("unexpected arguments %q; benchguard is configured by flags only", fs.Args())
	}
	if *maxRegress < 0 || math.IsNaN(*maxRegress) || math.IsInf(*maxRegress, 0) {
		return fail("-max-regress must be a non-negative fraction, got %v", *maxRegress)
	}
	if *maxSelfRatio <= 0 || math.IsNaN(*maxSelfRatio) || math.IsInf(*maxSelfRatio, 0) {
		return fail("-max-self-ratio must be a positive ratio, got %v", *maxSelfRatio)
	}
	if *minSpeedup <= 0 || math.IsNaN(*minSpeedup) || math.IsInf(*minSpeedup, 0) {
		return fail("-min-speedup must be a positive ratio, got %v", *minSpeedup)
	}
	if *speedupMinCPUs < 1 {
		return fail("-speedup-min-cpus must be ≥ 1, got %d", *speedupMinCPUs)
	}
	if *maxOverhead < 0 || math.IsNaN(*maxOverhead) || math.IsInf(*maxOverhead, 0) {
		return fail("-max-overhead must be a non-negative fraction, got %v", *maxOverhead)
	}

	base, err := load(*baseline)
	if err != nil {
		return fail("%v", err)
	}
	cur, err := load(*fresh)
	if err != nil {
		return fail("%v", err)
	}
	byKey := map[key]row{}
	for _, r := range base {
		byKey[r.key()] = r
	}

	matched, regressed := 0, 0
	fmt.Fprintf(stdout, "%-34s %12s %12s %9s\n", "row", "baseline", "fresh", "delta")
	for _, r := range cur {
		b, ok := byKey[r.key()]
		if !ok {
			fmt.Fprintf(stdout, "%-34s %12s %12.2f %9s\n", r.Name, "—", r.NsPerAction, "skip")
			continue
		}
		if b.NsPerAction <= 0 {
			fmt.Fprintf(stdout, "%-34s %12.2f %12.2f %9s\n", r.Name, b.NsPerAction, r.NsPerAction, "skip")
			continue
		}
		matched++
		delta := r.NsPerAction/b.NsPerAction - 1
		verdict := fmt.Sprintf("%+.1f%%", 100*delta)
		if delta > *maxRegress {
			regressed++
			verdict += " FAIL"
		}
		fmt.Fprintf(stdout, "%-34s %12.2f %12.2f %9s\n", r.Name, b.NsPerAction, r.NsPerAction, verdict)
	}

	status := exitOK
	switch {
	case regressed > 0:
		fmt.Fprintf(stderr, "benchguard: %d of %d matching rows regressed beyond %+.0f%% ns/action\n",
			regressed, matched, 100**maxRegress)
		status = exitRegression
	case matched == 0:
		fmt.Fprintf(stderr, "benchguard: no rows match the baseline host shape (%s was produced on different hardware or a different workload set); nothing was compared\n",
			*baseline)
		status = exitNoMatch
	default:
		fmt.Fprintf(stdout, "%d matching rows within %+.0f%% of the baseline\n", matched, 100**maxRegress)
	}

	// The self-check runs even when host-shape matching found nothing —
	// that is exactly the situation it exists for. Its failures outrank
	// the no-match status.
	if *self != "" {
		rowName, refName, ok := strings.Cut(*self, ":")
		if !ok || rowName == "" || refName == "" {
			return fail("-self wants row:reference, got %q", *self)
		}
		r, ref := findRow(cur, rowName), findRow(cur, refName)
		if r == nil || ref == nil || ref.NsPerAction <= 0 {
			return fail("-self %s: the fresh artifact lacks the pair (have %q and %q?)", *self, rowName, refName)
		}
		ratio := r.NsPerAction / ref.NsPerAction
		fmt.Fprintf(stdout, "self-check: %s / %s = %.2f (bound %.2f)\n", rowName, refName, ratio, *maxSelfRatio)
		if ratio > *maxSelfRatio {
			fmt.Fprintf(stderr, "benchguard: %s is %.2fx %s, beyond the %.2fx bound\n", rowName, ratio, refName, *maxSelfRatio)
			return exitRegression
		}
	}

	// Speedup pairs also compare within the fresh artifact, so they run
	// whatever the host-shape matching found. A shortfall outranks the
	// no-match status but not a regression: a regressed row already
	// fails the run, and its message is the more specific one.
	shortfalls := 0
	for _, pair := range speedups {
		rowName, refName, ok := strings.Cut(pair, ":")
		if !ok || rowName == "" || refName == "" {
			return fail("-speedup wants row:reference, got %q", pair)
		}
		r, ref := findRow(cur, rowName), findRow(cur, refName)
		if r == nil || ref == nil || r.NsPerAction <= 0 {
			return fail("-speedup %s: the fresh artifact lacks the pair (have %q and %q?)", pair, rowName, refName)
		}
		if r.NumCPU < *speedupMinCPUs || ref.NumCPU < *speedupMinCPUs {
			fmt.Fprintf(stdout, "speedup: %s / %s skipped (host has %d CPUs, check needs %d)\n",
				refName, rowName, r.NumCPU, *speedupMinCPUs)
			continue
		}
		speedup := ref.NsPerAction / r.NsPerAction
		fmt.Fprintf(stdout, "speedup: %s / %s = %.2fx (floor %.2fx)\n", refName, rowName, speedup, *minSpeedup)
		if speedup < *minSpeedup {
			shortfalls++
			fmt.Fprintf(stderr, "benchguard: %s is only %.2fx faster than %s, below the %.2fx floor\n",
				rowName, speedup, refName, *minSpeedup)
		}
	}
	// Overhead pairs: the observability-enabled row must stay within
	// -max-overhead of its disabled reference. Within-artifact like
	// -self/-speedup, so it holds on any host. A breach outranks the
	// no-match status but yields to regressions and speedup shortfalls,
	// whose messages are the more specific ones.
	breaches := 0
	for _, pair := range overheads {
		rowName, refName, ok := strings.Cut(pair, ":")
		if !ok || rowName == "" || refName == "" {
			return fail("-overhead wants row:reference, got %q", pair)
		}
		r, ref := findRow(cur, rowName), findRow(cur, refName)
		if r == nil || ref == nil || ref.NsPerAction <= 0 {
			return fail("-overhead %s: the fresh artifact lacks the pair (have %q and %q?)", pair, rowName, refName)
		}
		excess := r.NsPerAction/ref.NsPerAction - 1
		fmt.Fprintf(stdout, "overhead: %s / %s = %+.1f%% (bound %+.1f%%)\n",
			rowName, refName, 100*excess, 100**maxOverhead)
		if excess > *maxOverhead {
			breaches++
			fmt.Fprintf(stderr, "benchguard: %s costs %+.1f%% ns/action over %s, beyond the %+.1f%% overhead bound\n",
				rowName, 100*excess, refName, 100**maxOverhead)
		}
	}
	if shortfalls > 0 && status != exitRegression {
		return exitSpeedup
	}
	if breaches > 0 && status != exitRegression {
		return exitOverhead
	}
	return status
}

// pairList is the repeatable row:reference flag value behind -speedup.
type pairList []string

func (p *pairList) String() string     { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error { *p = append(*p, v); return nil }

// findRow returns the first fresh row with the given name (the fresh
// artifact is one host and one run, so names are unique per batch).
func findRow(rows []row, name string) *row {
	for i := range rows {
		if rows[i].Name == name {
			return &rows[i]
		}
	}
	return nil
}
