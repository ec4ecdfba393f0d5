package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/sim"
)

// Aggregate computes the cross-stream FleetSummary of a fleet result
// from its streamed stats — the exported form of the aggregation
// FleetTable renders, for callers that persist the summary instead of
// printing it. A failed stream keeps its place as a nil entry, which
// AggregateStats skips.
func Aggregate(res *fleet.Result) metrics.FleetSummary {
	traces := make([]*sim.Trace, len(res.Streams))
	stats := make([]*sim.StatsSink, len(res.Streams))
	for k, s := range res.Streams {
		if s.Err == nil {
			traces[k], stats[k] = s.Trace, s.Stats
		}
	}
	return metrics.AggregateStats(traces, stats)
}

// OpenTable formats an open-system fleet run: the per-stream lifecycle
// (arrival, admission wait, service, sojourn, outcome), the open-system
// aggregate — admission and shed rates, backlog depth, wait and sojourn
// percentiles — and then the usual cross-stream quality aggregation over
// the streams that actually ran. sum, flat and fs must be the run's
// open summary (metrics.SummarizeOpen over res.OpenObservations),
// executed-stream projection (res.FleetResult()) and fleet aggregate
// (Aggregate(flat)) — callers that also persist them compute each once
// and the printed and persisted aggregates cannot diverge.
func OpenTable(res *fleet.OpenResult, sum metrics.OpenSummary, flat *fleet.Result, fs metrics.FleetSummary) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== open fleet — stream lifecycle ==")
	fmt.Fprintf(&b, "%-4s %-18s %14s %14s %14s %14s  %s\n",
		"#", "stream", "arrival", "wait", "service", "sojourn", "outcome")
	for k, lc := range res.Lifecycles {
		outcome := "admitted"
		if lc.Queued {
			outcome = "queued, admitted"
		}
		if lc.Shed {
			outcome = "shed"
			if lc.Queued {
				outcome = "queued, shed"
			}
			fmt.Fprintf(&b, "%-4d %-18s %14v %14s %14s %14s  %s\n",
				k, lc.Name, lc.Arrival, "-", "-", "-", outcome)
			continue
		}
		if err := res.Streams[k].Err; err != nil {
			fmt.Fprintf(&b, "%-4d %-18s %14v error: %v\n", k, lc.Name, lc.Arrival, err)
			continue
		}
		fmt.Fprintf(&b, "%-4d %-18s %14v %14v %14v %14v  %s\n",
			k, lc.Name, lc.Arrival, lc.Wait(), lc.Departed-lc.Admitted, lc.Sojourn(), outcome)
	}
	fmt.Fprintln(&b, "\n== open fleet — aggregate ==")
	writeOpenSummary(&b, sum)
	fmt.Fprintf(&b, "span                %v (last departure at %v)\n\n", sum.Span, sum.Final)
	b.WriteString(FleetTable(flat, fs))
	return b.String()
}

// FleetDocText renders a persisted fleet document as the report section
// cmd/figures prints: the run headline, the cross-stream aggregate, and
// the open-system aggregate when the run was open.
func FleetDocText(doc *metrics.FleetDoc) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== fleet — persisted run ==")
	fmt.Fprintf(&b, "run                 %s, %d streams × %d cycles, %d workers, batch %d, seed %d (%s)\n",
		doc.Label, doc.Streams, doc.Cycles, doc.Workers, doc.BatchCycles, doc.Seed, doc.Mode)
	if doc.Arrivals != "" {
		fmt.Fprintf(&b, "arrivals            %s\n", doc.Arrivals)
	}
	if doc.Admission != "" {
		fmt.Fprintf(&b, "admission           %s\n", doc.Admission)
	}
	fs := doc.Summary
	fmt.Fprintf(&b, "actions executed    %d (%d manager decisions)\n", fs.Records, fs.Decisions)
	fmt.Fprintf(&b, "deadline misses     %d / %d (%.4f%% miss rate, worst stream %.4f%%)\n",
		fs.Misses, fs.DeadlineRecords, 100*fs.MissRate, 100*fs.WorstStreamMissRate)
	fmt.Fprintf(&b, "avg quality         %.3f\n", fs.AvgQuality)
	fmt.Fprintf(&b, "quality histogram   %s\n", histogram(fs.QualityHist, fs.Records))
	fmt.Fprintf(&b, "mgmt overhead       %.2f%% of busy time\n", 100*fs.OverheadFraction)
	fmt.Fprintf(&b, "utilization         p50 %.3f  p90 %.3f  max %.3f\n",
		fs.UtilizationP50, fs.UtilizationP90, fs.UtilizationMax)
	if doc.Open != nil {
		writeOpenSummary(&b, *doc.Open)
	}
	if doc.Cluster != nil {
		writeClusterSummary(&b, doc.Cluster)
	}
	return b.String()
}

// ClusterTable formats a routed scale-out run: the routing headline
// (instances, policy, fairness), one row per engine instance, the
// merged global aggregate, and then the usual cross-stream quality
// aggregation over the streams that ran. cs, flat and fs must be the
// run's cluster summary, executed-stream projection and fleet
// aggregate, computed once by the caller exactly as with OpenTable.
func ClusterTable(cs *metrics.ClusterSummary, flat *fleet.Result, fs metrics.FleetSummary) string {
	var b strings.Builder
	writeClusterSummary(&b, cs)
	fmt.Fprintln(&b, "\n== cluster — global aggregate ==")
	writeOpenSummary(&b, cs.Global)
	fmt.Fprintf(&b, "span                %v (last departure at %v)\n\n", cs.Global.Span, cs.Global.Final)
	b.WriteString(FleetTable(flat, fs))
	return b.String()
}

// writeClusterSummary renders the routed scale-out section shared by
// the live report (ClusterTable) and the persisted-doc view
// (FleetDocText).
func writeClusterSummary(w io.Writer, cs *metrics.ClusterSummary) {
	fmt.Fprintln(w, "== cluster — routed scale-out ==")
	fmt.Fprintf(w, "routing             %d instances, policy %s, fairness %.3f\n",
		cs.Instances, cs.Route, cs.Fairness)
	fmt.Fprintf(w, "%-4s %7s %9s %6s %12s %12s %12s\n",
		"inst", "routed", "admitted", "shed", "backlog max", "wait p90", "sojourn p90")
	for _, is := range cs.PerInstance {
		fmt.Fprintf(w, "%-4d %7d %9d %6d %12d %12v %12v\n",
			is.Instance, is.Routed, is.Open.Admitted, is.Open.Shed,
			is.Open.MaxBacklog, is.Open.WaitP90, is.Open.SojournP90)
	}
}

// writeOpenSummary renders the open-system aggregate lines shared by the
// live report (OpenTable) and the persisted-doc view (FleetDocText).
func writeOpenSummary(w io.Writer, o metrics.OpenSummary) {
	fmt.Fprintf(w, "population          %d streams: %d admitted (%.1f%%), %d delayed, %d shed (%.1f%%)\n",
		o.Streams, o.Admitted, 100*o.AdmitRate, o.Delayed, o.Shed, 100*o.ShedRate)
	if o.Failed > 0 {
		fmt.Fprintf(w, "failed              %d admitted streams failed validation and never ran\n", o.Failed)
	}
	fmt.Fprintf(w, "backlog             max %d, time-weighted mean %.3f\n", o.MaxBacklog, o.MeanBacklog)
	fmt.Fprintf(w, "admission wait      p50 %v  p90 %v  max %v\n", o.WaitP50, o.WaitP90, o.WaitMax)
	fmt.Fprintf(w, "time in system      p50 %v  p90 %v  max %v\n", o.SojournP50, o.SojournP90, o.SojournMax)
}

// FleetQualityChart turns a persisted fleet summary's quality histogram
// into a chart (fraction of executed actions per level), the fleet
// artefact cmd/figures emits next to the paper's figures.
func FleetQualityChart(doc *metrics.FleetDoc) *plot.Chart {
	chart := &plot.Chart{
		Title:  fmt.Sprintf("fleet quality histogram — %s (%s)", doc.Label, doc.Mode),
		XLabel: "quality level",
		YLabel: "fraction of executed actions",
	}
	fs := doc.Summary
	ser := plot.Series{Name: "fleet"}
	for q, c := range fs.QualityHist {
		frac := 0.0
		if fs.Records > 0 {
			frac = float64(c) / float64(fs.Records)
		}
		ser.X = append(ser.X, float64(q))
		ser.Y = append(ser.Y, frac)
	}
	chart.Series = append(chart.Series, ser)
	return chart
}
