package paper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"srlproc/internal/bench"
)

// resultCSV renders the CSV form of one experiment's result document.
// Both execution modes route through here — the in-process runner first
// marshals its typed result to the document, a server run receives the
// document over HTTP — so the CSV artifact is identical by construction
// no matter where the simulation ran, and every run re-proves the
// document round-trips (the same property the persistent store relies
// on).
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
