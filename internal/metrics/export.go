package metrics

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// WriteTraceCSV dumps a retained trace as CSV: one row per action
// instance with the fields downstream analysis needs (spreadsheets,
// pandas, gnuplot). The streaming sim.CSVWriter emits the same columns
// prefixed by a stream label (its rows for one stream are byte-equal to
// these, tested in sim), so zero-retention fleet exports and retained
// dumps stay analysable by one pipeline.
func WriteTraceCSV(w io.Writer, tr *sim.Trace) error {
	if _, err := fmt.Fprintln(w, "cycle,index,quality,start_ns,exec_ns,overhead_ns,decision,steps,deadline_ns,missed"); err != nil {
		return err
	}
	for _, r := range tr.Records {
		deadline := int64(-1)
		if !r.Deadline.IsInf() {
			deadline = int64(r.Deadline)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%t,%d,%d,%t\n",
			r.Cycle, r.Index, int(r.Q), int64(r.Start), int64(r.Exec), int64(r.Overhead),
			r.Decision, r.Steps, deadline, r.Missed); err != nil {
			return err
		}
	}
	return nil
}
