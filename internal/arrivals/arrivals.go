// Package arrivals generates deterministic, seed-derived arrival
// processes in simulated time. It is the workload-generation side of the
// open-system fleet: where the closed fleet engine starts N pre-counted
// streams at t = 0, an open system has streams *arrive* — periodically,
// as a Poisson process, in on–off bursts (a two-state MMPP), or replayed
// from a recorded trace — and the admission layer decides what to do
// with them.
//
// Every process is a pure function of its parameters and seed: the same
// configuration always yields the same arrival instants, bit for bit,
// which is what lets the fleet guarantee byte-identical open-system runs
// at any worker count. Randomness comes from the same splitmix64
// avalanche (sim.Mix64) the fleet uses for per-stream seed derivation,
// drawn sequentially, so no global PRNG state is involved.
package arrivals

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Process generates the arrival instants of a stream population in
// simulated time. Implementations must be deterministic: Times(n) is a
// pure function of the process's parameters, and its result is
// non-decreasing with every instant ≥ 0.
type Process interface {
	// Name identifies the process and its parameters for reports and
	// benchmark rows.
	Name() string
	// Times returns the arrival instants of the first n streams in
	// non-decreasing order. It fails for negative n or when the process
	// cannot produce n arrivals: a finite trace replay, or a schedule
	// whose next arrival would reach core.TimeInf.
	Times(n int) ([]core.Time, error)
}

// Fixed is the deterministic fixed-period process: stream k arrives at
// Start + k·Period. Period 0 makes every stream arrive at Start — with
// Start 0 that is exactly the closed fleet's all-at-once shape, which is
// what the open/closed equivalence property tests pin down.
type Fixed struct {
	Start  core.Time
	Period core.Time
}

// Name implements Process.
func (p Fixed) Name() string {
	return fmt.Sprintf("fixed(start=%v,period=%v)", p.Start, p.Period)
}

// Times implements Process.
func (p Fixed) Times(n int) ([]core.Time, error) {
	if err := validate(n); err != nil {
		return nil, err
	}
	if p.Start < 0 || p.Period < 0 {
		return nil, fmt.Errorf("arrivals: fixed process needs start ≥ 0 and period ≥ 0, got %v and %v", p.Start, p.Period)
	}
	if n > 0 && p.Start >= core.TimeInf {
		return nil, pastEnd("fixed", 0)
	}
	// last is the largest k with Start + k·Period < TimeInf; comparing k
	// against the quotient keeps the product in range.
	if p.Period > 0 && n > 1 {
		if last := (core.TimeInf - 1 - p.Start) / p.Period; core.Time(n-1) > last {
			return nil, pastEnd("fixed", int(last)+1)
		}
	}
	out := make([]core.Time, n)
	for k := range out {
		out[k] = p.Start + core.Time(k)*p.Period
	}
	return out, nil
}

// Poisson is the memoryless arrival process: inter-arrival gaps are
// independent exponential draws with mean MeanGap, quantised to the
// integer nanosecond clock. The draws come from a sequential splitmix64
// stream seeded by Seed, so the process is reproducible bit for bit.
type Poisson struct {
	MeanGap core.Time
	Seed    uint64
}

// Name implements Process.
func (p Poisson) Name() string {
	return fmt.Sprintf("poisson(gap=%v,seed=%d)", p.MeanGap, p.Seed)
}

// Times implements Process.
func (p Poisson) Times(n int) ([]core.Time, error) {
	if err := validate(n); err != nil {
		return nil, err
	}
	if p.MeanGap <= 0 {
		return nil, fmt.Errorf("arrivals: poisson process needs a positive mean gap, got %v", p.MeanGap)
	}
	r := splitmix{state: p.Seed}
	out := make([]core.Time, n)
	t := core.Time(0)
	for k := range out {
		// t < TimeInf and a draw is at most TimeInf, so the sum fits.
		if t += r.exponential(p.MeanGap); t >= core.TimeInf {
			return nil, pastEnd("poisson", k)
		}
		out[k] = t
	}
	return out, nil
}

// Bursty is a two-state on–off MMPP (Markov-modulated Poisson process):
// while ON, arrivals are Poisson with mean gap GapOn; while OFF, no
// streams arrive. The dwell times in both states are exponential with
// means MeanOn and MeanOff. The process starts ON, so the first burst
// begins at t = 0. Like Poisson, all draws come from one sequential
// seeded splitmix64 stream.
type Bursty struct {
	GapOn   core.Time // mean inter-arrival gap inside a burst
	MeanOn  core.Time // mean ON-state dwell time
	MeanOff core.Time // mean OFF-state dwell time
	Seed    uint64
}

// Name implements Process.
func (p Bursty) Name() string {
	return fmt.Sprintf("bursty(gap=%v,on=%v,off=%v,seed=%d)", p.GapOn, p.MeanOn, p.MeanOff, p.Seed)
}

// Times implements Process.
func (p Bursty) Times(n int) ([]core.Time, error) {
	if err := validate(n); err != nil {
		return nil, err
	}
	if p.GapOn <= 0 || p.MeanOn <= 0 || p.MeanOff <= 0 {
		return nil, fmt.Errorf("arrivals: bursty process needs positive gap and dwell means, got gap=%v on=%v off=%v",
			p.GapOn, p.MeanOn, p.MeanOff)
	}
	r := splitmix{state: p.Seed}
	out := make([]core.Time, 0, n)
	t := core.Time(0)
	stateEnd := t + r.exponential(p.MeanOn)
	for len(out) < n {
		// Candidate next arrival inside the current ON window. By the
		// memoryless property, discarding a partial gap at the window
		// edge and redrawing after the OFF dwell is still exponential.
		// t stays below TimeInf and a draw is at most TimeInf, so at,
		// stateEnd and the end of an OFF dwell stay inside int64.
		at := t + r.exponential(p.GapOn)
		if at < stateEnd {
			if at >= core.TimeInf {
				return nil, pastEnd("bursty", len(out))
			}
			t = at
			out = append(out, t)
			continue
		}
		if t = stateEnd + r.exponential(p.MeanOff); t >= core.TimeInf {
			return nil, pastEnd("bursty", len(out))
		}
		stateEnd = t + r.exponential(p.MeanOn)
	}
	return out, nil
}

// Trace replays recorded arrival instants — the shape the related
// inference simulators use to drive schedulers with production request
// logs. Instants are sorted at construction, so the replay is a valid
// process whatever order the recording listed them in.
type Trace struct {
	instants []core.Time
}

// NewTrace builds a replay process from the given instants. Negative
// instants and instants at or past core.TimeInf are rejected; the input
// is copied and sorted.
func NewTrace(instants []core.Time) (*Trace, error) {
	out := make([]core.Time, len(instants))
	copy(out, instants)
	slices.Sort(out)
	if len(out) > 0 && out[0] < 0 {
		return nil, fmt.Errorf("arrivals: trace has a negative instant %v", out[0])
	}
	if len(out) > 0 && out[len(out)-1] >= core.TimeInf {
		return nil, fmt.Errorf("arrivals: trace has an instant at or past the end of simulated time (%v)", time.Duration(core.TimeInf).Round(time.Second))
	}
	return &Trace{instants: out}, nil
}

// Len returns the number of recorded arrivals.
func (p *Trace) Len() int { return len(p.instants) }

// Name implements Process.
func (p *Trace) Name() string { return fmt.Sprintf("trace(%d arrivals)", len(p.instants)) }

// Times implements Process.
func (p *Trace) Times(n int) ([]core.Time, error) {
	if err := validate(n); err != nil {
		return nil, err
	}
	if n > len(p.instants) {
		return nil, fmt.Errorf("arrivals: trace has %d arrivals, %d requested", len(p.instants), n)
	}
	out := make([]core.Time, n)
	copy(out, p.instants[:n])
	return out, nil
}

// ReadCSV parses a replay trace: one arrival instant per row, first
// column. The time unit is inferred once for the whole file: if any
// value carries a decimal point or exponent, every value is seconds;
// otherwise all values are raw core.Time ticks (nanoseconds). Per-row
// inference would let one trace silently mix units — "0.5" and "1"
// as half a second and one nanosecond — and scramble arrival order.
// Blank lines, '#' comments and a leading non-numeric header row are
// skipped.
func ReadCSV(r io.Reader) (*Trace, error) {
	var fields []string
	var lines []int // the input line of each field
	seconds := false
	sc := bufio.NewScanner(r)
	line, rows := 0, 0
	for sc.Scan() {
		line++
		field := strings.TrimSpace(sc.Text())
		if field == "" || strings.HasPrefix(field, "#") {
			continue
		}
		rows++
		if i := strings.IndexByte(field, ','); i >= 0 {
			field = strings.TrimSpace(field[:i])
		}
		if !looksNumeric(field) {
			// Only a first row that cannot be a corrupted number reads as
			// a header: an empty first column or a leading digit/sign/
			// point (e.g. a truncated "12x34") is a malformed instant and
			// must not be dropped.
			if rows == 1 && field != "" && !strings.ContainsAny(field[:1], "0123456789+-.") {
				continue
			}
			return nil, fmt.Errorf("arrivals: line %d: bad arrival instant %q", line, field)
		}
		if strings.ContainsAny(field, ".eE") {
			seconds = true
		}
		fields = append(fields, field)
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("arrivals: %w", err)
	}
	if len(fields) == 0 {
		return nil, errors.New("arrivals: trace has no arrivals")
	}
	instants := make([]core.Time, len(fields))
	for i, field := range fields {
		t, err := parseInstant(field, seconds)
		if err != nil {
			return nil, fmt.Errorf("arrivals: line %d: %w", lines[i], err)
		}
		instants[i] = t
	}
	return NewTrace(instants)
}

// looksNumeric reports whether field parses as an arrival instant in
// either unit — the header/corruption gate ahead of unit inference.
func looksNumeric(field string) bool {
	if !strings.ContainsAny(field, ".eE") {
		_, err := strconv.ParseInt(field, 10, 64)
		return err == nil
	}
	v, err := strconv.ParseFloat(field, 64)
	return err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

func parseInstant(field string, seconds bool) (core.Time, error) {
	if !seconds {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad arrival instant %q", field)
		}
		if core.Time(v) >= core.TimeInf {
			return 0, pastTimeInf(field)
		}
		return core.Time(v), nil
	}
	v, err := strconv.ParseFloat(field, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad arrival instant %q", field)
	}
	// Go leaves the conversion of an out-of-range float to an integer to
	// the implementation, so such an instant is rejected before it.
	ticks := math.Round(v * float64(core.Second))
	if ticks >= float64(core.TimeInf) {
		return 0, pastTimeInf(field)
	}
	if ticks < math.MinInt64 {
		return 0, fmt.Errorf("arrival instant %q is out of range", field)
	}
	return core.Time(ticks), nil
}

// pastTimeInf rejects an instant at or past core.TimeInf, the end of
// simulated time, which no stream can arrive at.
func pastTimeInf(field string) error {
	return fmt.Errorf("arrival instant %q is out of range: at or past the end of simulated time (%v)", field, time.Duration(core.TimeInf).Round(time.Second))
}

func validate(n int) error {
	if n < 0 {
		return fmt.Errorf("arrivals: negative stream count %d", n)
	}
	return nil
}

// pastEnd reports the first arrival of a schedule that would reach
// core.TimeInf, the end of simulated time.
func pastEnd(process string, k int) error {
	return fmt.Errorf("arrivals: %s arrival %d would reach the end of simulated time (%v)", process, k, time.Duration(core.TimeInf).Round(time.Second))
}

// splitmix is the sequential form of the fleet's splitmix64 mixing
// primitive: a golden-ratio counter finalised by sim.Mix64 per draw.
type splitmix struct{ state uint64 }

// unit returns the next uniform draw in [0, 1).
func (r *splitmix) unit() float64 {
	r.state += 0x9E3779B97F4A7C15
	return float64(sim.Mix64(r.state)>>11) / float64(1<<53)
}

// exponential returns the next exponential draw with the given mean,
// rounded to the integer tick clock (never negative, at least 0). A
// draw at or beyond TimeInf returns TimeInf: Go leaves the conversion
// of an out-of-range float to an integer to the implementation.
func (r *splitmix) exponential(mean core.Time) core.Time {
	u := r.unit() // in [0,1) so 1-u is in (0,1] and the log is finite
	x := math.Round(-float64(mean) * math.Log(1-u))
	if x >= float64(core.TimeInf) {
		return core.TimeInf
	}
	return core.Time(x)
}
