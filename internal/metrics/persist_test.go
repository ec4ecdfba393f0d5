package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteJSONMatchesMarshalIndent: the streamed document is byte for
// byte json.MarshalIndent(d, "", "  ") plus a newline — for closed, open
// and cluster documents, for nil and empty slices, and for names that
// Marshal escapes (quotes, backslashes, HTML characters) or that are not
// ASCII. The indenter gives the same bytes when the compact encoding
// reaches it one byte per Write.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	odd := `q"uo\te <b> & ünï 流 \`
	summary := FleetSummary{
		Streams: 2, Records: 40, Decisions: 12, Misses: 1, DeadlineRecords: 20, MissRate: 0.05,
		PerStreamMissRate: []float64{0, 0.1}, WorstStreamMissRate: 0.1,
		QualityHist: []int{0, 10, 30}, AvgQuality: 1.75, OverheadFraction: 0.0125,
		PerStreamUtilization: []float64{0.5, 0.25}, UtilizationP50: 0.25, UtilizationP90: 0.5, UtilizationMax: 0.5,
		PerStream: []Summary{
			{Manager: odd, Cycles: 4, AvgQuality: 1.5, MinQuality: 1, MaxQuality: 2, Final: 1e9},
			{Manager: "relaxed", Cycles: 6, MeanRelaxSteps: 2.5, Smooth: Smoothness{Switches: 3}},
		},
	}
	open := OpenSummary{
		Streams: 3, Admitted: 2, Delayed: 1, Shed: 1, AdmitRate: 2.0 / 3, ShedRate: 1.0 / 3,
		MaxBacklog: 1, MeanBacklog: 0.125, WaitP50: 5, WaitP90: 9, WaitMax: 9,
		SojournP50: 100, SojournP90: 120, SojournMax: 120, Span: 400, Final: 390,
	}
	docs := map[string]*FleetDoc{
		"closed": {Label: odd, Mode: "closed", Streams: 2, Workers: 4, BatchCycles: 32, Cycles: 8, Seed: 7, Summary: summary},
		"open": {Label: "encoder", Mode: "open", Streams: 3, Workers: 1, BatchCycles: 1,
			Arrivals: "ndjson:" + odd, Admission: "cap-2,queue-3", Summary: summary, Open: &open},
		"cluster": {Label: "catalog", Mode: "open", Streams: 3, Arrivals: "poisson", Admission: "cap-6",
			Summary: summary, Open: &open, Cluster: &ClusterSummary{
				Instances: 2, Route: odd, Fairness: 0.9, Global: open,
				PerInstance: []InstanceSummary{{Instance: 0, Routed: 2, Open: open}, {Instance: 1, Routed: 1}},
			}},
		"nil slices": {Label: "", Mode: "closed"},
		"empty slices": {Mode: "open", Summary: FleetSummary{
			PerStreamMissRate: []float64{}, QualityHist: []int{}, PerStreamUtilization: []float64{}, PerStream: []Summary{},
		}, Open: &OpenSummary{}, Cluster: &ClusterSummary{PerInstance: []InstanceSummary{}}},
	}
	for name, doc := range docs {
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var got bytes.Buffer
		if err := doc.WriteJSON(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteJSON wrote\n%s\nwant\n%s", name, got.Bytes(), want)
		}

		compact, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var split bytes.Buffer
		bw := bufio.NewWriter(&split)
		x := &indenter{w: bw}
		for i := range compact {
			x.Write(compact[i : i+1])
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(split.Bytes(), want[:len(want)-1]) {
			t.Errorf("%s: byte-at-a-time indenting wrote\n%s\nwant\n%s", name, split.Bytes(), want[:len(want)-1])
		}
	}
}
