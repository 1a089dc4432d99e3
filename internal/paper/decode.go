package paper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"srlproc/internal/bench"
)

// resultCSV renders the CSV form of one experiment's result document.
// The runner renders from the marshalled document rather than the typed
// result so that every run re-proves the document round-trips: a document
// that does not decode fails the unit instead of reaching csv/<key>.json,
// which Check byte-compares across repeats and Analyze reads for plot
// titles and digests.
func resultCSV(id bench.ExperimentID, doc []byte) ([]byte, error) {
	var cw interface{ WriteCSV(io.Writer) error }
	switch id {
	case bench.Fig2, bench.Fig6, bench.Fig8, bench.Fig9, bench.Fig10:
		r := new(bench.FigureResult)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	case bench.Fig7:
		r := new(bench.Figure7Result)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	case bench.Table3:
		r := new(bench.Table3Result)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	case bench.Energy:
		r := new(bench.EnergyResult)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	case bench.Latency:
		r := new(bench.LatencyResult)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	case bench.Ordering:
		r := new(bench.OrderingResult)
		if err := json.Unmarshal(doc, r); err != nil {
			return nil, fmt.Errorf("paper: decode %s: %w", id, err)
		}
		cw = r
	default:
		return nil, fmt.Errorf("paper: no CSV decoder for experiment %s", id)
	}
	var buf bytes.Buffer
	if err := cw.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
