package report

import (
	"fmt"
	"strings"

	"repro/internal/fleet"
	"repro/internal/metrics"
)

// FleetTable formats the cross-stream view of a fleet run: one line per
// stream (including failed ones), then the fleet-wide aggregation —
// miss rates, the quality histogram and the utilisation distribution.
// fs must be the run's aggregate (Aggregate(res)) — callers that also
// persist it compute it once and the printed and persisted summaries
// cannot diverge.
func FleetTable(res *fleet.Result, fs metrics.FleetSummary) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== fleet — per-stream results ==")
	fmt.Fprintf(&b, "%-4s %-18s %8s %9s %12s %11s %6s\n",
		"#", "stream", "misses", "missrate", "avg quality", "overhead %", "util")
	si := 0
	for k, s := range res.Streams {
		if s.Err != nil {
			fmt.Fprintf(&b, "%-4d %-18s error: %v\n", k, s.Name, s.Err)
			continue
		}
		sum := fs.PerStream[si]
		fmt.Fprintf(&b, "%-4d %-18s %8d %8.3f%% %12.3f %10.2f%% %6.3f\n",
			k, s.Name, sum.Misses, 100*fs.PerStreamMissRate[si], sum.AvgQuality,
			100*sum.OverheadFraction, fs.PerStreamUtilization[si])
		si++
	}
	fmt.Fprintln(&b, "\n== fleet — aggregate ==")
	fmt.Fprintf(&b, "streams             %d (%d failed)\n", fs.Streams, len(res.Streams)-fs.Streams)
	fmt.Fprintf(&b, "actions executed    %d (%d manager decisions)\n", fs.Records, fs.Decisions)
	fmt.Fprintf(&b, "deadline misses     %d / %d (%.4f%% miss rate, worst stream %.4f%%)\n",
		fs.Misses, fs.DeadlineRecords, 100*fs.MissRate, 100*fs.WorstStreamMissRate)
	fmt.Fprintf(&b, "avg quality         %.3f\n", fs.AvgQuality)
	fmt.Fprintf(&b, "quality histogram   %s\n", histogram(fs.QualityHist, fs.Records))
	fmt.Fprintf(&b, "mgmt overhead       %.2f%% of busy time\n", 100*fs.OverheadFraction)
	fmt.Fprintf(&b, "utilization         p50 %.3f  p90 %.3f  max %.3f\n",
		fs.UtilizationP50, fs.UtilizationP90, fs.UtilizationMax)
	return b.String()
}

func histogram(hist []int, total int) string {
	if total == 0 {
		return "(empty)"
	}
	parts := make([]string, len(hist))
	for q, c := range hist {
		parts[q] = fmt.Sprintf("q%d:%.1f%%", q, 100*float64(c)/float64(total))
	}
	return strings.Join(parts, " ")
}
