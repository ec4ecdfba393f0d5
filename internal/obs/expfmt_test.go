package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// promRegistry builds a fixed registry with one instrument of each
// kind, set to known values — shared by the golden and round-trip
// tests.
func promRegistry() *Registry {
	r := NewRegistry("qmtest")
	c := r.Counter("admitted", "Streams admitted.", SerialOrder)
	g := r.Gauge("backlog", "Backlog depth.", SerialOrder)
	f := r.FloatGauge("integral", "Backlog integral.", SerialOrder)
	h := r.Histogram("flush", "Flush sizes.", ShapeDependent, []int64{1, 4})
	c.Add(42)
	g.Set(7)
	f.Set(1.5)
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	return r
}

// TestWritePromGolden pins the exposition bytes: Prometheus text
// format v0.0.4, determinism labels, cumulative histogram buckets.
func TestWritePromGolden(t *testing.T) {
	var sb strings.Builder
	if err := promRegistry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP qmtest_admitted_total Streams admitted.
# TYPE qmtest_admitted_total counter
qmtest_admitted_total{determinism="serial-order"} 42
# HELP qmtest_backlog Backlog depth.
# TYPE qmtest_backlog gauge
qmtest_backlog{determinism="serial-order"} 7
# HELP qmtest_integral Backlog integral.
# TYPE qmtest_integral gauge
qmtest_integral{determinism="serial-order"} 1.5
# HELP qmtest_flush Flush sizes.
# TYPE qmtest_flush histogram
qmtest_flush_bucket{determinism="shape-dependent",le="1"} 1
qmtest_flush_bucket{determinism="shape-dependent",le="4"} 2
qmtest_flush_bucket{determinism="shape-dependent",le="+Inf"} 3
qmtest_flush_sum{determinism="shape-dependent"} 13
qmtest_flush_count{determinism="shape-dependent"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParsePromRoundTrip feeds the writer's output back through the
// parser: every series must come back with its value intact — the
// property the CI scrape assertion relies on.
func TestParsePromRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := promRegistry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse of our own exposition failed: %v", err)
	}
	wantValues := map[string]float64{
		"qmtest_admitted_total": 42,
		"qmtest_backlog":        7,
		"qmtest_integral":       1.5,
		"qmtest_flush_sum":      13,
		"qmtest_flush_count":    3,
	}
	for name, want := range wantValues {
		s, ok := FindSeries(samples, name, nil)
		if !ok {
			t.Fatalf("sample %s missing from round trip", name)
		}
		if s.Value != want {
			t.Fatalf("%s = %v, want %v", name, s.Value, want)
		}
	}
	// The +Inf bucket must equal the count, per the format's contract.
	var inf, count float64
	for _, s := range samples {
		if s.Name == "qmtest_flush_bucket" && strings.Contains(s.Series, `le="+Inf"`) {
			inf = s.Value
		}
		if s.Name == "qmtest_flush_count" {
			count = s.Value
		}
	}
	if inf != count || count == 0 {
		t.Fatalf("+Inf bucket %v != count %v", inf, count)
	}
	if escapeHelp("a\\b\nc") != `a\\b\nc` {
		t.Fatal("help escaping broken")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no value", "# TYPE m counter\nm{}"},
		{"bad value", "# TYPE m counter\nm{} abc"},
		{"unbalanced braces", "# TYPE m counter\nm{x=\"1\" 3"},
		{"bad name", "# TYPE m counter\n2m 3"},
		{"unquoted label", "# TYPE m counter\nm{x=1} 3"},
		{"untyped sample", "m 3"},
		{"bad type", "# TYPE m zebra\nm 3"},
		{"malformed type", "# TYPE m\nm 3"},
		{"malformed help", "# HELP \nm 3"},
	}
	for _, tc := range cases {
		if _, err := ParseProm(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parse accepted %q", tc.name, tc.in)
		}
	}
}

func TestParsePromAcceptsHistogramSeries(t *testing.T) {
	in := `# TYPE m histogram
m_bucket{le="1"} 1
m_bucket{le="+Inf"} 2
m_sum 3
m_count 2
`
	samples, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
}

// TestWithLabelsExposition pins the labeled-view mechanics end to end:
// two instance views of one root registry register the same family, the
// exposition groups both series under one HELP/TYPE block (interleaved
// registration order notwithstanding), the parser round-trips it, and
// FindSeries resolves each instance's series by its label pair.
func TestWithLabelsExposition(t *testing.T) {
	root := NewRegistry("qmtest")
	i0 := root.WithLabels("instance", "0")
	i1 := root.WithLabels("instance", "1")
	a0 := i0.Counter("admitted", "Streams admitted.", SerialOrder)
	b0 := i0.Gauge("backlog", "Backlog depth.", SerialOrder)
	a1 := i1.Counter("admitted", "Streams admitted.", SerialOrder)
	b1 := i1.Gauge("backlog", "Backlog depth.", SerialOrder)
	a0.Add(3)
	a1.Add(5)
	b0.Set(1)
	b1.Set(2)

	var sb strings.Builder
	if err := i1.WriteProm(&sb); err != nil { // a view renders the whole root
		t.Fatal(err)
	}
	want := `# HELP qmtest_admitted_total Streams admitted.
# TYPE qmtest_admitted_total counter
qmtest_admitted_total{determinism="serial-order",instance="0"} 3
qmtest_admitted_total{determinism="serial-order",instance="1"} 5
# HELP qmtest_backlog Backlog depth.
# TYPE qmtest_backlog gauge
qmtest_backlog{determinism="serial-order",instance="0"} 1
qmtest_backlog{determinism="serial-order",instance="1"} 2
`
	if got := sb.String(); got != want {
		t.Fatalf("labeled exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	samples, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := FindSeries(samples, "qmtest_admitted_total", []string{`instance="1"`})
	if !ok || s.Value != 5 {
		t.Fatalf("FindSeries(instance=1) = %+v, %v", s, ok)
	}
	if _, ok := FindSeries(samples, "qmtest_admitted_total", []string{`instance="9"`}); ok {
		t.Fatal("FindSeries matched a nonexistent instance")
	}
	if len(root.Metrics()) != 4 {
		t.Fatalf("root sees %d series, want 4", len(root.Metrics()))
	}

	// Re-registering a family member with the same labels, or the same
	// name as a different kind, is a programmer error on any view.
	for name, fn := range map[string]func(){
		"duplicate series": func() { i0.Counter("admitted", "dup", SerialOrder) },
		"kind mismatch":    func() { root.Gauge("admitted_total", "kind", SerialOrder) },
		"det label key":    func() { root.WithLabels("determinism", "x") },
		"quoted value":     func() { root.WithLabels("instance", `a"b`) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzParseProm: the exposition parser never panics, every error it
// returns carries the package prefix, and an input it accepts,
// re-rendered from its samples with its TYPE lines where they stood,
// parses to the same samples.
func FuzzParseProm(f *testing.F) {
	var sb strings.Builder
	if err := promRegistry().WriteProm(&sb); err != nil {
		f.Fatal(err)
	}
	for _, in := range []string{
		sb.String(),
		"# TYPE m histogram\nm_bucket{le=\"1\"} 1\nm_bucket{le=\"+Inf\"} 2\nm_sum 3\nm_count 2\n",
		"# HELP m Help.\n# TYPE m gauge\nm{a=\"x\", b=\"y\"}  -0\nm NaN\nm +Inf\nm 0x1p-2\r\n",
		"# TYPE m counter\nm 1\n# TYPE m gauge\nm 2\n",
		"# TYPE m counter\nm{}",
		"# TYPE m counter\nm{x=\"1\" 3",
		"# TYPE m counter\n2m 3",
		"m 3",
		"# TYPE m zebra\nm 3",
		"# HELP \nm 3",
		"",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		samples, err := ParseProm(strings.NewReader(in))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "obs: ") {
				t.Fatalf("error without the obs: prefix: %v", err)
			}
			return
		}
		// Walk the lines as ParseProm reads them, emitting each TYPE
		// declaration and, for each sample line, the next sample.
		var out strings.Builder
		next := 0
		for _, line := range strings.Split(in, "\n") {
			text := strings.TrimSpace(line)
			switch {
			case text == "":
			case strings.HasPrefix(text, "#"):
				if fields := strings.Fields(text); len(fields) == 4 && fields[1] == "TYPE" {
					fmt.Fprintf(&out, "# TYPE %s %s\n", fields[2], fields[3])
				}
			case next == len(samples):
				t.Fatalf("%q has more sample lines than the %d samples parsed", in, len(samples))
			default:
				s := samples[next]
				next++
				fmt.Fprintf(&out, "%s %s\n", s.Series, strconv.FormatFloat(s.Value, 'g', -1, 64))
			}
		}
		back, err := ParseProm(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("%q parsed, but its re-rendering %q does not: %v", in, out.String(), err)
		}
		if next != len(samples) || len(back) != len(samples) {
			t.Fatalf("%q: %d samples, %d sample lines, %d samples re-parsed", in, len(samples), next, len(back))
		}
		for i, s := range samples {
			b := back[i]
			if b.Name != s.Name || b.Series != s.Series || b.Value != s.Value && !(math.IsNaN(b.Value) && math.IsNaN(s.Value)) {
				t.Fatalf("%q: sample %d is %+v, re-parsed as %+v", in, i, s, b)
			}
		}
	})
}
