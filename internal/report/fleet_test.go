package report

import (
	"strings"
	"testing"

	"repro/internal/fleet"
)

func TestFleetTableContents(t *testing.T) {
	s := *shared
	s.Cycles = 2 // keep the table run short; shared has 29-frame streams
	streams, err := s.FleetStreams(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.RunStats(fleet.Config{Streams: streams, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Inject one failed stream to exercise the error row.
	res.Streams[2].Err = errTest{}
	res.Streams[2].Trace = nil
	out := FleetTable(res, Aggregate(res))
	for _, want := range []string{
		"per-stream results", "encoder-000", "encoder-003",
		"error: boom", "fleet — aggregate",
		"streams             3 (1 failed)", "quality histogram", "utilization",
		"miss rate", "p50", "p90",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet table missing %q:\n%s", want, out)
		}
	}
}

type errTest struct{}

func (errTest) Error() string { return "boom" }
