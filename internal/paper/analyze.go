package paper

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"srlproc/internal/bench"
)

// Analyze runs the analysis stage over a completed (or resumed) run
// directory: it re-validates every CSV against its experiment's shape,
// computes grouped summary statistics across repeats, renders the
// Markdown and LaTeX tables and the SVG figure plots, and writes the
// report.md index. Everything it writes is deterministic in the CSVs, so
// two runs over byte-identical results produce byte-identical analyses.
type AnalyzeConfig struct {
	Grid    *Grid
	Profile string
	Only    []bench.ExperimentID
	Repeats int
	// Dir is the run directory (paper_runs/<stamp>).
	Dir string
}

// experimentRun groups one experiment's repeats for analysis.
type experimentRun struct {
	ID      bench.ExperimentID
	Shape   bench.ExperimentShape
	Repeats []Unit
}

// groupPlan folds the unit plan by experiment, preserving grid order.
func groupPlan(units []Unit) ([]*experimentRun, error) {
	var runs []*experimentRun
	byID := map[bench.ExperimentID]*experimentRun{}
	for _, u := range units {
		er := byID[u.ID]
		if er == nil {
			shape, err := bench.Shape(u.ID, u.Options)
			if err != nil {
				return nil, err
			}
			er = &experimentRun{ID: u.ID, Shape: shape}
			byID[u.ID] = er
			runs = append(runs, er)
		}
		er.Repeats = append(er.Repeats, u)
	}
	return runs, nil
}

// Analyze executes the analysis stage; see AnalyzeConfig.
func Analyze(cfg AnalyzeConfig) error {
	units, err := cfg.Grid.Plan(cfg.Profile, cfg.Only, cfg.Repeats)
	if err != nil {
		return err
	}
	runs, err := groupPlan(units)
	if err != nil {
		return err
	}
	anaDir := filepath.Join(cfg.Dir, analysisDir)
	for _, d := range []string{anaDir, filepath.Join(anaDir, "tables"), filepath.Join(anaDir, "plots")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("paper: %w", err)
		}
	}

	// Stage 1: validation. Every CSV must match its declared shape before
	// anything downstream consumes it.
	for _, er := range runs {
		for _, u := range er.Repeats {
			if err := ValidateCSV(filepath.Join(cfg.Dir, csvDir, u.Key()+".csv"), er.Shape); err != nil {
				return err
			}
		}
	}

	if err := writeRunSummary(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writeGroupedSummary(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writeTables(cfg.Dir, runs); err != nil {
		return err
	}
	if err := writePlots(cfg.Dir, runs); err != nil {
		return err
	}
	return writeReport(cfg, runs)
}

// writeRunSummary emits summary_runs.csv: one row per produced CSV with
// its size and the result document's digest (the repeat-identity key).
func writeRunSummary(dir string, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("experiment,repeat,file,rows,csv_bytes,doc_sha256\n")
	for _, er := range runs {
		for _, u := range er.Repeats {
			csvPath := filepath.Join(dir, csvDir, u.Key()+".csv")
			docPath := filepath.Join(dir, csvDir, u.Key()+".json")
			st, err := os.Stat(csvPath)
			if err != nil {
				return err
			}
			doc, err := os.ReadFile(docPath)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s,%d,%s,%d,%d,%s\n",
				er.ID, u.Repeat, csvDir+"/"+u.Key()+".csv", er.Shape.CSVRows, st.Size(), sha256Hex(doc))
		}
	}
	return writeFileAtomic(filepath.Join(dir, analysisDir, "summary_runs.csv"), []byte(b.String()))
}

// writeGroupedSummary emits summary_grouped.csv: mean/std/min/max of every
// numeric cell across repeats. The simulator is deterministic, so std is
// expected to be exactly zero — a non-zero std here is itself a finding.
func writeGroupedSummary(dir string, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("experiment,row,column,repeats,mean,std,min,max\n")
	for _, er := range runs {
		type cellKey struct{ row, col int }
		var header []string
		var rowKeys []string
		samples := map[cellKey][]float64{}
		for _, u := range er.Repeats {
			h, rows, err := readCSV(filepath.Join(dir, csvDir, u.Key()+".csv"))
			if err != nil {
				return err
			}
			if header == nil {
				header = h
				for _, row := range rows {
					rowKeys = append(rowKeys, rowKey(h, row))
				}
			}
			for ri, row := range rows {
				for ci, cell := range row {
					if keyColumns[header[ci]] {
						continue
					}
					v, err := strconv.ParseFloat(cell, 64)
					if err != nil {
						return fmt.Errorf("paper: %s: %w", u.Key(), err)
					}
					k := cellKey{ri, ci}
					samples[k] = append(samples[k], v)
				}
			}
		}
		for ri, key := range rowKeys {
			for ci, col := range header {
				vals, ok := samples[cellKey{ri, ci}]
				if !ok {
					continue
				}
				mean, std, lo, hi := summarize(vals)
				fmt.Fprintf(&b, "%s,%s,%s,%d,%s,%s,%s,%s\n",
					er.ID, key, col, len(vals), fnum(mean), fnum(std), fnum(lo), fnum(hi))
			}
		}
	}
	return writeFileAtomic(filepath.Join(dir, analysisDir, "summary_grouped.csv"), []byte(b.String()))
}

// rowKey joins a row's identity columns ("srl|SFP2K"); rows without key
// columns key by their first cell.
func rowKey(header []string, row []string) string {
	var parts []string
	for i, col := range header {
		if keyColumns[col] {
			parts = append(parts, row[i])
		}
	}
	if len(parts) == 0 {
		return row[0]
	}
	return strings.Join(parts, "|")
}

func summarize(vals []float64) (mean, std, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		mean += v
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std, lo, hi
}

// fnum formats a summary number deterministically and compactly.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// configTables are the tables bench computes without simulation, in
// report order, keyed by their file name under analysis/tables/.
var configTables = []struct {
	name  string
	table func() bench.ConfigTable
}{
	{"table1", bench.Table1},
	{"table2", bench.Table2},
	{"power", bench.Section62Table},
}

// writeTables renders Tables 1–3 and Section 6.2 as Markdown and LaTeX.
// Tables 1 and 2 and Section 6.2 come from configTables; Table 3 comes
// from the run's own measured CSV when the grid includes it.
func writeTables(dir string, runs []*experimentRun) error {
	emit := func(name, title string, headers []string, rows [][]string) error {
		md := MarkdownTable(title, headers, rows)
		if err := writeFileAtomic(filepath.Join(dir, analysisDir, "tables", name+".md"), []byte(md)); err != nil {
			return err
		}
		tex := LaTeXTable(title, headers, rows)
		return writeFileAtomic(filepath.Join(dir, analysisDir, "tables", name+".tex"), []byte(tex))
	}
	for _, t := range configTables {
		ct := t.table()
		if err := emit(t.name, ct.Title, ct.Headers, ct.Rows); err != nil {
			return err
		}
	}
	for _, er := range runs {
		if er.ID != bench.Table3 {
			continue
		}
		header, rows, err := readCSV(filepath.Join(dir, csvDir, er.Repeats[0].Key()+".csv"))
		if err != nil {
			return err
		}
		if err := emit("table3", "Table 3: SRL statistics", header, rows); err != nil {
			return err
		}
	}
	return nil
}

// plotTitle names each experiment's figure.
func plotTitle(id bench.ExperimentID, doc []byte) string {
	switch id {
	case bench.Fig7:
		return "Figure 7: SRL occupancy distribution (percent of occupied time)"
	case bench.Energy:
		return "Energy attribution: secondary load/store structures (nJ / 1k uops)"
	case bench.Latency:
		return "Latency tolerance (IPC vs memory latency)"
	case bench.Ordering:
		return "Ordering + far-memory scenario pack (IPC)"
	}
	// Figure documents carry their own title.
	var t struct {
		Title string `json:"title"`
	}
	if json.Unmarshal(doc, &t) == nil && t.Title != "" {
		return t.Title
	}
	return id.Description()
}

// writePlots renders the figure SVGs from the first repeat's CSV (repeats
// are byte-identical; `-check` enforces it).
func writePlots(dir string, runs []*experimentRun) error {
	for _, er := range runs {
		key := er.Repeats[0].Key()
		header, rows, err := readCSV(filepath.Join(dir, csvDir, key+".csv"))
		if err != nil {
			return err
		}
		doc, err := os.ReadFile(filepath.Join(dir, csvDir, key+".json"))
		if err != nil {
			return err
		}
		svg, err := plotExperiment(er.ID, plotTitle(er.ID, doc), header, rows)
		if err != nil {
			return err
		}
		if svg == nil {
			continue // no plot form (table3)
		}
		if err := writeFileAtomic(filepath.Join(dir, analysisDir, "plots", er.ID.String()+".svg"), svg); err != nil {
			return err
		}
	}
	return nil
}

// plotExperiment picks the chart form for one experiment's CSV.
func plotExperiment(id bench.ExperimentID, title string, header []string, rows [][]string) ([]byte, error) {
	parse := func(cell string) (float64, error) { return strconv.ParseFloat(cell, 64) }
	switch id {
	case bench.Fig2, bench.Fig6, bench.Fig8, bench.Fig9, bench.Fig10:
		// suite rows × series columns → grouped bars.
		var cats []string
		series := make([]Series, len(header)-1)
		for i, h := range header[1:] {
			series[i].Label = h
		}
		for _, row := range rows {
			cats = append(cats, row[0])
			for i, cell := range row[1:] {
				v, err := parse(cell)
				if err != nil {
					return nil, err
				}
				series[i].Values = append(series[i].Values, v)
			}
		}
		return GroupedBarSVG(title, "% speedup over baseline", cats, series)
	case bench.Fig7:
		// suite rows × ">N" threshold columns → one line per suite.
		xs := make([]string, len(header)-1)
		for i, h := range header[1:] {
			xs[i] = ">" + strings.TrimPrefix(h, "gt_")
		}
		var series []Series
		for _, row := range rows {
			s := Series{Label: row[0]}
			for _, cell := range row[1:] {
				v, err := parse(cell)
				if err != nil {
					return nil, err
				}
				s.Values = append(s.Values, v)
			}
			series = append(series, s)
		}
		return LineSVG(title, "% of SRL-occupied time above threshold", xs, series)
	case bench.Energy:
		// (design, suite) rows → suites as categories, designs as bars.
		return pivotChart(title, "nJ / 1k uops", header, rows, "design", "suite", "nj_per_1k_uops", GroupedBarSVG)
	case bench.Latency:
		// (suite, design, latency) rows → latency on x, one line per design.
		return pivotChart(title, "IPC", header, rows, "design", "mem_latency", "ipc", LineSVG)
	case bench.Ordering:
		// (suite, design, scenario) rows → scenarios as categories, one bar
		// group per design.
		return pivotChart(title, "IPC", header, rows, "design", "scenario", "ipc", GroupedBarSVG)
	case bench.Table3:
		return nil, nil // Table 3 renders as a table, not a chart
	}
	return nil, fmt.Errorf("paper: no plot form for %s", id)
}

// pivotChart pivots long-form rows (seriesCol, xCol, valueCol) into chart
// series, preserving first-seen order for both axes.
func pivotChart(title, yLabel string, header []string, rows [][]string,
	seriesCol, xCol, valueCol string,
	render func(string, string, []string, []Series) ([]byte, error)) ([]byte, error) {
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, c := range []string{seriesCol, xCol, valueCol} {
		if _, ok := col[c]; !ok {
			return nil, fmt.Errorf("paper: pivot: no column %q in %v", c, header)
		}
	}
	var xs []string
	xIdx := map[string]int{}
	var series []Series
	sIdx := map[string]int{}
	for _, row := range rows {
		x := row[col[xCol]]
		if _, ok := xIdx[x]; !ok {
			xIdx[x] = len(xs)
			xs = append(xs, x)
		}
		name := row[col[seriesCol]]
		if _, ok := sIdx[name]; !ok {
			sIdx[name] = len(series)
			series = append(series, Series{Label: name})
		}
	}
	for i := range series {
		series[i].Values = make([]float64, len(xs))
	}
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[col[valueCol]], 64)
		if err != nil {
			return nil, err
		}
		series[sIdx[row[col[seriesCol]]]].Values[xIdx[row[col[xCol]]]] = v
	}
	return render(title, yLabel, xs, series)
}

// writeReport writes the analysis/report.md index. It is deterministic in
// the run's results: wall times and timestamps stay in the manifest.
func writeReport(cfg AnalyzeConfig, runs []*experimentRun) error {
	var b strings.Builder
	b.WriteString("# Paper reproduction report\n\n")
	b.WriteString("Scalable Load and Store Processing in Latency Tolerant Processors — regenerated artifacts.\n\n")
	fmt.Fprintf(&b, "- profile: `%s`\n- experiments: %d\n", cfg.Profile, len(runs))
	b.WriteString("- provenance: [`manifest.json`](../manifest.json) (code stamp, git revision, wall times)\n")
	b.WriteString("- summaries: [`summary_runs.csv`](summary_runs.csv), [`summary_grouped.csv`](summary_grouped.csv)\n")
	b.WriteString("- checks: `check.md` appears here when the run used `-check`\n\n")

	b.WriteString("## Configuration tables\n\n")
	for _, t := range configTables {
		fmt.Fprintf(&b, "- [%s](tables/%s.md) ([LaTeX](tables/%s.tex))\n", t.name, t.name, t.name)
	}
	b.WriteString("\n## Experiments\n\n")
	for _, er := range runs {
		fmt.Fprintf(&b, "### %s\n\n%s\n\n", er.ID, er.ID.Description())
		fmt.Fprintf(&b, "- points: %d · repeats: %d · CSV: ", er.Shape.Points, len(er.Repeats))
		for i, u := range er.Repeats {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[`%s.csv`](../csv/%s.csv)", u.Key(), u.Key())
		}
		b.WriteString("\n")
		if er.ID == bench.Table3 {
			b.WriteString("- tables: [table3.md](tables/table3.md) ([LaTeX](tables/table3.tex))\n\n")
			md, err := os.ReadFile(filepath.Join(cfg.Dir, analysisDir, "tables", "table3.md"))
			if err != nil {
				return err
			}
			b.Write(md)
			b.WriteString("\n")
		} else {
			fmt.Fprintf(&b, "\n![%s](plots/%s.svg)\n\n", er.ID, er.ID)
		}
	}
	return writeFileAtomic(filepath.Join(cfg.Dir, analysisDir, "report.md"), []byte(b.String()))
}
