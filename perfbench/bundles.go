package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/controller"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// compileBundles compiles each spec and persists it as dir/<name>.json,
// the deployment shape of the paper's tool flow: compile once, serve
// from the stored bundle.
func compileBundles(tr *tracer, dir string, specs []controller.Spec) ([]*controller.Bundle, error) {
	out := make([]*controller.Bundle, len(specs))
	for i, spec := range specs {
		tr.begin(lCompile)
		b, err := controller.Compile(spec)
		tr.end()
		if err != nil {
			return nil, err
		}
		if err := writeFile(bundlePath(dir, spec.Name), func(w io.Writer) error {
			_, err := b.WriteTo(w)
			return err
		}); err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// loadBundles reads back the bundles compileBundles stored: what a
// restarted process does instead of compiling.
func loadBundles(tr *tracer, dir string, names []string) ([]*controller.Bundle, error) {
	out := make([]*controller.Bundle, len(names))
	for i, name := range names {
		f, err := os.Open(bundlePath(dir, name))
		if err != nil {
			return nil, err
		}
		tr.begin(lLoad)
		b, err := controller.Load(f)
		tr.end()
		f.Close()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func bundlePath(dir, name string) string { return filepath.Join(dir, name+".json") }

// buildPlans builds each bundle's decision plan before the first action
// needs it; relaxed selects the relaxation plan, otherwise the
// quality-region plan of the symbolic manager.
func buildPlans(tr *tracer, bundles []*controller.Bundle, relaxed bool) {
	for _, b := range bundles {
		tr.begin(lPlan)
		if relaxed {
			b.RelaxTables().Plan()
		} else {
			b.Tables().Plan()
		}
		tr.end()
	}
}

// streamRef is one stream's reference outcome: the scalar trace and the
// streamed statistics of a serial sim.Runner run at the same seed.
type streamRef struct {
	trace sim.Trace
	stats sim.SinkState
}

// serialRef runs one stream on its own with a StatsSink.
func serialRef(r sim.Runner) (streamRef, error) {
	sink := sim.NewStatsSink(r.Sys.NumLevels())
	r.Sink = sink
	tr, err := r.Run()
	if err != nil {
		return streamRef{}, err
	}
	return streamRef{trace: scalars(tr), stats: sink.State()}, nil
}

func scalars(tr *sim.Trace) sim.Trace {
	s := *tr
	s.Records = nil
	return s
}

// matches reports whether an engine's stream result equals the reference.
func (ref streamRef) matches(sr fleet.StreamResult) bool {
	if sr.Err != nil || sr.Trace == nil || sr.Stats == nil {
		return false
	}
	return reflect.DeepEqual(scalars(sr.Trace), ref.trace) && reflect.DeepEqual(sr.Stats.State(), ref.stats)
}

// tally folds the streams that ran into the quality and deadline totals.
type tally struct {
	streams, ran               int
	records, deadlines, misses int
	qsum                       float64
}

func (t *tally) add(s *sim.StatsSink) {
	t.ran++
	t.records += s.Records
	t.deadlines += s.DeadlineRecords
	t.misses += s.Misses
	t.qsum += s.QualitySum
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ns_per_action", "ns"},
	{"events_per_s", "1/s"},
	{"resume_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mean_quality", "levels"},
	{"on_time_frac", "fraction"},
	{"served_frac", "fraction"},
	{"ok_frac", "fraction"},
}

// e2e is one run's end-to-end figures: per-repetition samples for the
// timings and memory, each reported as its median, and the outcome tally.
type e2e struct {
	setup, resume, nsPerAction, eventsPerS, rssMB []float64
	t                                             tally
}

func (x *e2e) report(o *outcome) {
	vals := map[string]float64{
		"setup_s":       median(x.setup),
		"ns_per_action": median(x.nsPerAction),
		"events_per_s":  median(x.eventsPerS),
		"resume_s":      median(x.resume),
		"peak_rss_mb":   median(x.rssMB),
		"mean_quality":  x.t.qsum / float64(max(x.t.records, 1)),
		"on_time_frac":  1 - float64(x.t.misses)/float64(max(x.t.deadlines, 1)),
		"served_frac":   float64(x.t.ran) / float64(max(x.t.streams, 1)),
		"ok_frac":       1 - float64(o.failed)/float64(max(o.attempted, 1)),
	}
	for _, m := range endToEnd {
		o.set(m.name, m.unit, vals[m.name])
	}
}
