package metrics

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// statsOfTrace replays a retained trace's records through a fresh
// StatsSink. It bridges the two worlds: a run executed with full
// retention can be aggregated by the same stats-based code paths as a
// zero-retention run, and the equality of both routes is the sink
// layer's property-tested contract.
func statsOfTrace(tr *sim.Trace) *sim.StatsSink {
	s := sim.NewStatsSink(0)
	for _, r := range tr.Records {
		s.Observe(r)
	}
	return s
}

// SummarizeStats computes the run Summary from the scalar trace (clock,
// totals, decision and miss counts — all O(1) fields the executor
// maintains regardless of retention) and the streamed record aggregates.
// For a trace run with retention, SummarizeStats(tr, statsOfTrace(tr))
// equals Summarize(tr) exactly.
func SummarizeStats(tr *sim.Trace, st *sim.StatsSink) Summary {
	s := Summary{
		Manager:          tr.Manager,
		Cycles:           tr.Cycles,
		Decisions:        tr.Decisions,
		Misses:           tr.Misses,
		OverheadFraction: tr.OverheadFraction(),
		TotalExec:        tr.TotalExec,
		TotalOverhead:    tr.TotalOverhead,
		TotalIdle:        tr.TotalIdle,
		Final:            tr.Final,
		MinQuality:       st.MinQuality(),
		MaxQuality:       st.MaxQuality(),
	}
	if st.Records >= 2 {
		s.Smooth = Smoothness{
			MeanAbsDelta: st.AbsDeltaSum / float64(st.Records-1),
			Switches:     st.Switches,
		}
	}
	if st.Records == 0 {
		return s
	}
	s.AvgQuality = st.QualitySum / float64(st.Records)
	if tr.Decisions > 0 {
		s.MeanRelaxSteps = float64(st.Records) / float64(tr.Decisions)
	}
	return s
}

// AggregateStats computes the fleet summary from per-stream scalar
// traces and their streamed stats — the zero-retention counterpart of
// AggregateTraces, with which it agrees exactly on the same runs
// (quality levels are small integers, so every float accumulation is
// exact). Entry j is skipped when traces[j] is nil (a failed stream);
// stats[j] must be non-nil wherever traces[j] is.
func AggregateStats(traces []*sim.Trace, stats []*sim.StatsSink) FleetSummary {
	fs := FleetSummary{}
	var qSum float64
	var exec, overhead core.Time
	var utils []float64
	for j, tr := range traces {
		if tr == nil {
			continue
		}
		st := stats[j]
		fs.Streams++
		fs.PerStream = append(fs.PerStream, SummarizeStats(tr, st))
		fs.Records += st.Records
		fs.Decisions += tr.Decisions
		fs.Misses += tr.Misses
		exec += tr.TotalExec
		overhead += tr.TotalOverhead

		qSum += st.QualitySum
		for q, c := range st.QualityHist {
			for len(fs.QualityHist) <= q {
				fs.QualityHist = append(fs.QualityHist, 0)
			}
			fs.QualityHist[q] += c
		}
		fs.DeadlineRecords += st.DeadlineRecords
		rate := 0.0
		if st.DeadlineRecords > 0 {
			rate = float64(tr.Misses) / float64(st.DeadlineRecords)
		}
		fs.PerStreamMissRate = append(fs.PerStreamMissRate, rate)
		fs.WorstStreamMissRate = max(fs.WorstStreamMissRate, rate)
		fs.PerStreamUtilization = append(fs.PerStreamUtilization, Utilization(tr))
	}
	utils = append(utils, fs.PerStreamUtilization...) // Percentile sorts its argument
	if fs.Records > 0 {
		fs.AvgQuality = qSum / float64(fs.Records)
	}
	if fs.DeadlineRecords > 0 {
		fs.MissRate = float64(fs.Misses) / float64(fs.DeadlineRecords)
	}
	if busy := exec + overhead; busy > 0 {
		fs.OverheadFraction = float64(overhead) / float64(busy)
	}
	fs.UtilizationP50 = Percentile(utils, 0.5)
	fs.UtilizationP90 = Percentile(utils, 0.9)
	fs.UtilizationMax = Percentile(utils, 1)
	return fs
}
