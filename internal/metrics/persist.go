package metrics

import (
	"bufio"
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

// WriteJSON persists the doc as indented JSON: the bytes of
// json.MarshalIndent(d, "", "  ") and a newline. A json.Encoder writes
// the compact encoding and its newline through an indenter into w, so
// neither a copy of the encoding nor the indented document, about twice
// its size, is held in memory.
func (d *FleetDoc) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if err := json.NewEncoder(&indenter{w: bw}).Encode(d); err != nil {
		return fmt.Errorf("metrics: write fleet doc: %w", err)
	}
	return bw.Flush()
}

// indenter is an io.Writer that indents the compact JSON written to it
// as json.MarshalIndent(v, "", "  ") indents it: each element of a
// non-empty object or array on its own line, two spaces per level, a
// space after each colon, and "{}" and "[]" left empty. Compact JSON
// has no whitespace outside strings and escapes every quote and
// backslash inside them, so the bytes to act on are the punctuation
// outside strings; runs of other bytes are copied through as they are.
type indenter struct {
	w      *bufio.Writer
	depth  int
	opened bool // the last byte opened an object or array
	inStr  bool // inside a string
	esc    bool // the last byte was a backslash inside a string
}

func (x *indenter) Write(p []byte) (int, error) {
	from := 0 // start of the run not yet written
	for i, c := range p {
		if x.inStr {
			switch {
			case x.esc:
				x.esc = false
			case c == '\\':
				x.esc = true
			case c == '"':
				x.inStr = false
			}
			continue
		}
		if x.opened {
			x.opened = false
			if c == '}' || c == ']' {
				continue // "{}" or "[]": the run copies it
			}
			x.w.Write(p[from:i])
			from = i
			x.depth++
			x.newline()
		}
		switch c {
		case '"':
			x.inStr = true
		case '{', '[':
			x.opened = true
		case ',':
			x.w.Write(p[from : i+1])
			from = i + 1
			x.newline()
		case ':':
			x.w.Write(p[from : i+1])
			from = i + 1
			x.w.WriteByte(' ')
		case '}', ']':
			x.w.Write(p[from:i])
			from = i
			x.depth--
			x.newline()
		}
	}
	_, err := x.w.Write(p[from:])
	return len(p), err
}

func (x *indenter) newline() {
	x.w.WriteByte('\n')
	for range x.depth {
		x.w.WriteString("  ")
	}
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
