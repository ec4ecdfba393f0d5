package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// FleetDoc is the persisted form of a fleet run: the configuration
// headline, the cross-stream FleetSummary, and — for open-system runs —
// the OpenSummary. qmfleet -json writes it; cmd/figures renders a fleet
// section from it, so a fleet experiment survives as an artefact instead
// of scrolling away with the terminal.
type FleetDoc struct {
	// Label describes the stream mix or bundle the fleet ran.
	Label string `json:"label"`
	// Mode is "closed" (fixed population, all streams at t=0) or "open"
	// (arrival process + admission control).
	Mode    string `json:"mode"`
	Streams int    `json:"streams"`
	// Workers is the configured scheduler width (the -workers cap, 0
	// resolved to GOMAXPROCS), not a concurrency measurement: fewer
	// streams may be in service than there are workers. Results never
	// depend on it either way.
	Workers     int    `json:"workers"`
	BatchCycles int    `json:"batch_cycles"`
	Cycles      int    `json:"cycles"`
	Seed        uint64 `json:"seed"`
	// Arrivals and Admission name the open-system configuration (empty
	// for closed runs).
	Arrivals  string `json:"arrivals,omitempty"`
	Admission string `json:"admission,omitempty"`

	Summary FleetSummary `json:"summary"`
	Open    *OpenSummary `json:"open,omitempty"`
	// Cluster is the routed scale-out section (per-instance summaries,
	// fairness), present when the run spread across engine instances.
	Cluster *ClusterSummary `json:"cluster,omitempty"`
}

// WriteJSON persists the doc as indented JSON.
func (d *FleetDoc) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal fleet doc: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// ReadFleetDoc loads a doc written by WriteJSON.
func ReadFleetDoc(r io.Reader) (*FleetDoc, error) {
	var d FleetDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("metrics: read fleet doc: %w", err)
	}
	return &d, nil
}
