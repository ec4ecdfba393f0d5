package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// detLabel is the exposition label carrying each metric's determinism
// class, so a scrape is self-describing about which series are
// comparable across scheduler shapes.
const detLabel = "determinism"

// WriteProm renders every registered metric in Prometheus text
// exposition format v0.0.4, grouped per family: HELP and TYPE appear
// once per metric name (at its first registration), followed by every
// series of that family — labeled views (per-instance series) collapse
// into one valid block. Values are read with atomic loads, so scraping
// a live engine is safe; the rendering itself is cold-path and
// allocates freely. Called on a labeled view, it renders the whole
// root registry.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	metrics := r.base().metrics
	done := map[string]bool{}
	for i := range metrics {
		if name := metrics[i].Name; metrics[i].valid && !done[name] {
			done[name] = true
			writePromFamily(bw, metrics, name)
		}
	}
	return bw.Flush()
}

// writePromFamily renders one family: the HELP/TYPE header from its
// first series, then every series of the name in registration order.
func writePromFamily(bw *bufio.Writer, metrics []Desc, name string) {
	first := true
	for i := range metrics {
		d := &metrics[i]
		if d.Name != name || !d.valid {
			continue
		}
		if first {
			first = false
			fmt.Fprintf(bw, "# HELP %s %s\n", d.Name, escapeHelp(d.Help))
			switch d.kind {
			case kindCounter:
				fmt.Fprintf(bw, "# TYPE %s counter\n", d.Name)
			case kindGauge, kindFloatGauge:
				fmt.Fprintf(bw, "# TYPE %s gauge\n", d.Name)
			case kindHistogram:
				fmt.Fprintf(bw, "# TYPE %s histogram\n", d.Name)
			}
		}
		labels := `{` + detLabel + `="` + d.Det.String() + `"` + d.labels + `}`
		switch d.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", d.Name, labels, d.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %d\n", d.Name, labels, d.g.Value())
		case kindFloatGauge:
			fmt.Fprintf(bw, "%s%s %s\n", d.Name, labels,
				strconv.FormatFloat(d.fg.Value(), 'g', -1, 64))
		case kindHistogram:
			counts, sum := d.h.snapshot()
			var cum int64
			for j, bound := range d.h.bounds {
				cum += counts[j]
				fmt.Fprintf(bw, "%s_bucket{%s=%q%s,le=%q} %d\n",
					d.Name, detLabel, d.Det.String(), d.labels, strconv.FormatInt(bound, 10), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(bw, "%s_bucket{%s=%q%s,le=\"+Inf\"} %d\n", d.Name, detLabel, d.Det.String(), d.labels, cum)
			fmt.Fprintf(bw, "%s_sum%s %d\n", d.Name, labels, sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", d.Name, labels, cum)
		}
	}
}

// escapeHelp escapes backslashes and newlines per the exposition
// format's HELP rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Sample is one parsed exposition sample: the metric name with its
// label set exactly as rendered, and the parsed value.
type Sample struct {
	Name   string // bare metric name (no labels)
	Series string // name{labels...} — the full series identity
	Value  float64
}

// ParseProm parses Prometheus text exposition v0.0.4 strictly enough
// to act as a format validator: every non-comment line must be
// `name[{labels}] value`, HELP/TYPE comments must be well-formed and
// TYPE must precede samples of its metric. It returns the samples in
// input order. The golden tests and the CI scrape assertion both go
// through this parser, so "qmfleetd serves valid exposition" is a
// checked property, not a hope.
func ParseProm(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var samples []Sample
	typed := map[string]string{} // metric name → TYPE
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := parsePromComment(text, typed); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			continue
		}
		s, err := parsePromSample(text)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if err := checkTyped(typed, s.Name); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return samples, nil
}

// parsePromComment validates a # HELP / # TYPE line (other comments
// pass through) and records TYPE declarations.
func parsePromComment(text string, typed map[string]string) error {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", text)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		typed[fields[2]] = fields[3]
	}
	return nil
}

// parsePromSample splits `name[{labels}] value`.
func parsePromSample(text string) (Sample, error) {
	series := text
	valueStr := ""
	if i := strings.Index(text, "}"); i >= 0 {
		series = strings.TrimSpace(text[:i+1])
		valueStr = strings.TrimSpace(text[i+1:])
	} else {
		var ok bool
		series, valueStr, ok = strings.Cut(text, " ")
		if !ok {
			return Sample{}, fmt.Errorf("sample %q has no value", text)
		}
		valueStr = strings.TrimSpace(valueStr)
	}
	name := series
	if i := strings.Index(series, "{"); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return Sample{}, fmt.Errorf("unbalanced label braces in %q", text)
		}
		name = series[:i]
		if err := checkLabels(series[i+1 : len(series)-1]); err != nil {
			return Sample{}, fmt.Errorf("%w in %q", err, text)
		}
	}
	if !validMetricName(name) {
		return Sample{}, fmt.Errorf("invalid metric name %q", name)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return Sample{}, fmt.Errorf("sample %q: bad value: %w", text, err)
	}
	return Sample{Name: name, Series: series, Value: v}, nil
}

// checkLabels validates a comma-separated k="v" label body.
func checkLabels(body string) error {
	if strings.TrimSpace(body) == "" {
		return nil
	}
	for _, part := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || !validMetricName(k) {
			return fmt.Errorf("malformed label %q", part)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value %q", part)
		}
	}
	return nil
}

// checkTyped requires a preceding TYPE for the sample's metric family
// (histogram series resolve _bucket/_sum/_count to their family).
func checkTyped(typed map[string]string, name string) error {
	if _, ok := typed[name]; ok {
		return nil
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typed[base] == "histogram" || typed[base] == "summary" {
				return nil
			}
		}
	}
	return fmt.Errorf("sample %s has no preceding # TYPE declaration", name)
}

// FindSeries returns the first sample matching the bare name whose
// series carries every given `k="v"` label pair — the lookup the CI
// assertion tool uses, labeled (instance="0") against per-instance
// series or with no pairs against the bare name alone.
func FindSeries(samples []Sample, name string, pairs []string) (Sample, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for _, p := range pairs {
			if !strings.Contains(s.Series, p) {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return Sample{}, false
}
