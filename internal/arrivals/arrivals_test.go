package arrivals

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// checkProcess asserts the Process contract: determinism, monotonicity,
// non-negative instants.
func checkProcess(t *testing.T, p Process, n int) []core.Time {
	t.Helper()
	a, err := p.Times(n)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	b, err := p.Times(n)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: two generations of the same process differ", p.Name())
	}
	if len(a) != n {
		t.Fatalf("%s: got %d instants, want %d", p.Name(), len(a), n)
	}
	for k, at := range a {
		if at < 0 {
			t.Fatalf("%s: negative instant %v at %d", p.Name(), at, k)
		}
		if k > 0 && at < a[k-1] {
			t.Fatalf("%s: instants not monotone at %d: %v < %v", p.Name(), k, at, a[k-1])
		}
	}
	return a
}

// checkPastEnd asserts that p's schedule reaches core.TimeInf within n
// arrivals, that Times reports it as an arrivals: error naming the first
// arrival that would reach it, and that the schedule up to that arrival
// still stands.
func checkPastEnd(t *testing.T, p Process, n int) {
	t.Helper()
	for m := 1; m <= n; m++ {
		a, err := p.Times(m)
		if err == nil {
			if a[m-1] >= core.TimeInf {
				t.Fatalf("%s: arrival %d is %v, at or past TimeInf", p.Name(), m-1, a[m-1])
			}
			continue
		}
		if want := fmt.Sprintf("arrivals: %s arrival %d would reach the end of simulated time", strings.SplitN(p.Name(), "(", 2)[0], m-1); !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s: Times(%d) = %v, want an error starting %q", p.Name(), m, err, want)
		}
		if _, err := p.Times(m + 100); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("arrival %d ", m-1)) {
			t.Fatalf("%s: Times(%d) = %v, want the same first arrival %d", p.Name(), m+100, err, m-1)
		}
		return
	}
	t.Fatalf("%s: %d arrivals never reached TimeInf", p.Name(), n)
}

func TestFixed(t *testing.T) {
	a := checkProcess(t, Fixed{Start: 5, Period: 10}, 4)
	want := []core.Time{5, 15, 25, 35}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("fixed: got %v, want %v", a, want)
	}
	// Period 0 is the closed fleet's all-at-once shape.
	a = checkProcess(t, Fixed{}, 3)
	if !reflect.DeepEqual(a, []core.Time{0, 0, 0}) {
		t.Fatalf("fixed period 0: got %v", a)
	}
	if _, err := (Fixed{Period: -1}).Times(2); err == nil {
		t.Fatal("negative period accepted")
	}
	// 3·Period is past TimeInf, and k·Period in plain int64 wraps past k = 10.
	checkPastEnd(t, Fixed{Period: core.TimeInf / 5 * 2}, 16)
	checkPastEnd(t, Fixed{Start: core.TimeInf}, 1)
}

func TestPoisson(t *testing.T) {
	const n = 2000
	mean := core.Time(1000)
	a := checkProcess(t, Poisson{MeanGap: mean, Seed: 42}, n)
	// Empirical mean gap within 10% of the configured mean: a loose
	// sanity band, deterministic because the draws are.
	avg := float64(a[n-1]) / float64(n)
	if avg < 0.9*float64(mean) || avg > 1.1*float64(mean) {
		t.Fatalf("poisson mean gap %v off the configured %v", avg, mean)
	}
	// Distinct seeds decorrelate.
	b := checkProcess(t, Poisson{MeanGap: mean, Seed: 43}, n)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave identical arrivals")
	}
	if _, err := (Poisson{MeanGap: 0}).Times(2); err == nil {
		t.Fatal("zero mean gap accepted")
	}
	if _, err := (Poisson{MeanGap: 10}).Times(-1); err == nil {
		t.Fatal("negative count accepted")
	}
	checkPastEnd(t, Poisson{MeanGap: core.TimeInf / 2, Seed: 1}, 16)
}

// TestExponentialSaturates: a draw beyond the int64 range saturates at
// TimeInf instead of leaving the float conversion to the implementation.
func TestExponentialSaturates(t *testing.T) {
	r := splitmix{state: 3}
	beyond := 0
	for i := 0; i < 1000; i++ {
		peek := r
		if -float64(core.TimeInf)*math.Log(1-peek.unit()) >= math.MaxInt64 {
			beyond++
		}
		if d := r.exponential(core.TimeInf); d < 0 || d > core.TimeInf {
			t.Fatalf("draw %d = %d, outside [0, TimeInf]", i, d)
		}
	}
	if beyond == 0 {
		t.Fatal("no draw went beyond the int64 range")
	}
}

func TestBursty(t *testing.T) {
	const n = 500
	p := Bursty{GapOn: 100, MeanOn: 1000, MeanOff: 10000, Seed: 7}
	a := checkProcess(t, p, n)
	// The on–off structure must show: gaps inside bursts are on the
	// GapOn scale, OFF dwells insert much larger ones. Count gaps well
	// above the ON scale — there must be some (bursts end), and far
	// fewer than n (arrivals cluster).
	large := 0
	for k := 1; k < n; k++ {
		if a[k]-a[k-1] > 2000 {
			large++
		}
	}
	if large == 0 || large > n/4 {
		t.Fatalf("bursty: %d large gaps out of %d — no on/off structure", large, n)
	}
	if _, err := (Bursty{GapOn: 0, MeanOn: 1, MeanOff: 1}).Times(2); err == nil {
		t.Fatal("zero burst gap accepted")
	}
	checkPastEnd(t, Bursty{GapOn: core.TimeInf / 4, MeanOn: core.TimeInf, MeanOff: core.TimeInf, Seed: 1}, 16)
}

func TestTrace(t *testing.T) {
	tr, err := NewTrace([]core.Time{30, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.Times(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, []core.Time{10, 20, 30}) {
		t.Fatalf("trace not sorted: %v", a)
	}
	if _, err := tr.Times(4); err == nil {
		t.Fatal("overdrawn trace accepted")
	}
	if _, err := NewTrace([]core.Time{-1}); err == nil {
		t.Fatal("negative instant accepted")
	}
}

func TestReadCSV(t *testing.T) {
	in := strings.Join([]string{
		"arrival",        // header
		"# a comment",    // comment
		"",               // blank
		"1000",           // integer — but the file's unit is seconds (below)
		"0.5, streamxyz", // seconds, extra column
		"2.5e-9",         // scientific seconds → ~2.5 ticks
	}, "\n")
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Times(tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	// The unit is inferred once per file: any decimal/exponent value
	// makes the whole file seconds, so the bare "1000" is 1000 s, not
	// 1000 ticks — per-row inference would scramble arrival order.
	want := []core.Time{3, core.Time(float64(core.Second) / 2), 1000 * core.Second}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("csv parse: got %v, want %v", got, want)
	}

	// An all-integer file is raw ticks.
	tr, err = ReadCSV(strings.NewReader("10\n1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Times(tr.Len()); !reflect.DeepEqual(got, []core.Time{10, 1000}) {
		t.Fatalf("tick parse: got %v", got)
	}

	// A header is the first non-blank, non-comment row wherever it
	// falls, not literally line 1.
	tr, err = ReadCSV(strings.NewReader("# recorded 2026-07-28\n\ntimestamp\n1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("comment-then-header trace has %d arrivals, want 1", tr.Len())
	}

	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := ReadCSV(strings.NewReader("arrival\nnot-a-number")); err == nil {
		t.Fatal("garbage row accepted")
	}
	// 1e10 s is more ticks than an int64 holds.
	if _, err := ReadCSV(strings.NewReader("1e10\n")); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range instant: err = %v", err)
	}
	// No stream can arrive at or past TimeInf, the end of simulated
	// time: in ticks or in seconds that round to it, the row is an error
	// that names its line.
	for _, tc := range []struct{ in, line string }{
		{"0\n3000000000000000000\n", "line 2"},
		{"0\n" + strconv.FormatInt(int64(core.TimeInf), 10) + "\n", "line 2"},
		{"# end\n0.5\n2305843009.2139\n", "line 3"},
	} {
		if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.line) ||
			!strings.Contains(err.Error(), "end of simulated time") {
			t.Fatalf("%q: err = %v, want a past-the-end error naming %s", tc.in, err, tc.line)
		}
	}
	if _, err := ReadCSV(strings.NewReader(strconv.FormatInt(int64(core.TimeInf)-1, 10) + "\n")); err != nil {
		t.Fatalf("the last instant before TimeInf: %v", err)
	}
	if _, err := NewTrace([]core.Time{0, core.TimeInf}); err == nil {
		t.Fatal("NewTrace accepted an instant at TimeInf")
	}

	// A corrupted first data row is an error, not a header: the header
	// heuristic must not silently drop an arrival whose value merely
	// failed to parse (e.g. a truncated export).
	for _, bad := range []string{"12x34\n1000\n", "-\n1000\n", ".5.5\n1000\n", ",123\n456\n"} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("corrupt first row %q accepted as a header", bad)
		}
	}
}

// FuzzReadCSV: the trace reader never panics, every error it returns
// carries the package prefix, and an accepted trace, written back as
// integer ticks, re-reads to the same instants.
func FuzzReadCSV(f *testing.F) {
	for _, in := range []string{
		"arrival\n# a comment\n\n1000\n0.5, streamxyz\n2.5e-9\n",
		"10\n1000\n",
		"# recorded 2026-07-28\n\ntimestamp\n1000\n",
		"12x34\n1000\n",
		"-\n1000\n",
		".5.5\n1000\n",
		",123\n456\n",
		"-5\n",
		"1e10\n",
		"NaN\n",
		"arrival\n",
		"",
		"0\n3000000000000000000\n",
		"2305843009.2139\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "arrivals: ") {
				t.Fatalf("error without the arrivals: prefix: %v", err)
			}
			return
		}
		got, err := tr.Times(tr.Len())
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range got {
			if at >= core.TimeInf {
				t.Fatalf("%q read as %v, past the end of simulated time", in, got)
			}
		}
		var ticks strings.Builder
		for _, at := range got {
			fmt.Fprintf(&ticks, "%d\n", int64(at))
		}
		back, err := ReadCSV(strings.NewReader(ticks.String()))
		if err != nil {
			t.Fatalf("%q read as %v, but its ticks %q do not re-read: %v", in, got, ticks.String(), err)
		}
		again, err := back.Times(back.Len())
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("%q read as %v, its ticks re-read as %v (%v)", in, got, again, err)
		}
	})
}
