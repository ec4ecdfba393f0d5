package metrics

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestWriteTraceCSV(t *testing.T) {
	tr := &sim.Trace{Records: []sim.Record{
		{Cycle: 0, Index: 0, Q: 3, Start: 10, Exec: 5, Overhead: 2, Decision: true, Steps: 2, Deadline: core.TimeInf},
		{Cycle: 0, Index: 1, Q: 3, Start: 17, Exec: 6, Deadline: 100, Missed: true},
	}}
	var b strings.Builder
	if err := WriteTraceCSV(&b, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "cycle,index,quality") {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,0,3,10,5,2,true,2,-1,false" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "0,1,3,17,6,0,false,0,100,true" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}
