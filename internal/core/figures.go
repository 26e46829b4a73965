package core

import (
	"io"
	"time"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/report"
)

// section is one titled block of the text report.
type section struct{ title, body string }

// csvFile is one file of the CSV export: its name and a writer over
// the result the figure computed.
type csvFile struct {
	name  string
	write func(io.Writer) error
}

// figure is one table or figure rendered both ways.
type figure struct {
	sections []section
	files    []csvFile
}

// figureEntry names a table or figure and renders it from a dataset,
// running its analysis once.
type figureEntry struct {
	name   string
	render func(ds *analysis.Dataset) figure
}

// figures is the paper's deliverable in report order: Tables 1-3,
// Figures 1-12, §5's acquisition order and three extensions. It is the
// only list of them; WriteReport and WriteCSVDir read it. Figure 1
// plots Table 3's live and tagged rows, so the Table 3 entry renders
// it too.
var figures = []figureEntry{
	single("Table1", "Table 1: feed summary", "table1_feeds.csv",
		analysis.Table1, report.FeedSummaryTable, report.CSVFeedSummary),
	single("Table2", "Table 2: purity indicators", "table2_purity.csv",
		analysis.Purity, report.PurityTable, report.CSVPurity),
	{"Table3", func(ds *analysis.Dataset) figure {
		all := analysis.Coverage(ds, analysis.ClassAll)
		live := analysis.Coverage(ds, analysis.ClassLive)
		tagged := analysis.Coverage(ds, analysis.ClassTagged)
		return figure{
			sections: []section{
				{"Table 3: coverage (total / exclusive)", report.CoverageTable(all, live, tagged)},
				{"Figure 1: distinct vs exclusive (live)", report.ExclusiveScatter(live)},
				{"Figure 1: distinct vs exclusive (tagged)", report.ExclusiveScatter(tagged)},
			},
			files: []csvFile{{"table3_coverage.csv", func(w io.Writer) error {
				return report.CSVCoverage(w, all, live, tagged)
			}}},
		}
	}},
	{"Figure2", func(ds *analysis.Dataset) figure {
		live := analysis.Intersections(ds, analysis.ClassLive)
		tagged := analysis.Intersections(ds, analysis.ClassTagged)
		return figure{
			sections: []section{
				{"Figure 2: pairwise intersection (live)", report.MatrixTable(live)},
				{"Figure 2: pairwise intersection (tagged)", report.MatrixTable(tagged)},
			},
			files: []csvFile{
				{"figure2_live.csv", func(w io.Writer) error { return report.CSVMatrix(w, live) }},
				{"figure2_tagged.csv", func(w io.Writer) error { return report.CSVMatrix(w, tagged) }},
			},
		}
	}},
	single("Figure3", "Figure 3: volume coverage", "figure3_volume.csv",
		analysis.VolumeCoverage, report.VolumeBars, report.CSVVolume),
	single("Figure4", "Figure 4: affiliate-program coverage", "figure4_programs.csv",
		analysis.ProgramCoverage, report.MatrixTable, report.CSVMatrix),
	single("Figure5", "Figure 5: RX affiliate coverage", "figure5_affiliates.csv",
		analysis.AffiliateCoverage, report.MatrixTable, report.CSVMatrix),
	{"Figure6", func(ds *analysis.Dataset) figure {
		rows, total := analysis.RevenueCoverage(ds)
		return figure{
			sections: []section{{"Figure 6: revenue-weighted affiliate coverage", report.RevenueBars(rows, total)}},
			files: []csvFile{{"figure6_revenue.csv", func(w io.Writer) error {
				return report.CSVRevenue(w, rows, total)
			}}},
		}
	}},
	single("Figure7", "Figure 7: pairwise variation distance", "figure7_variation.csv",
		analysis.VariationDistances, report.PairwiseTable, report.CSVPairwise),
	single("Figure8", "Figure 8: pairwise Kendall tau-b", "figure8_kendall.csv",
		analysis.KendallTaus, report.PairwiseTable, report.CSVPairwise),
	single("Figure9", "Figure 9: first appearance (all-feed baseline, minus Bot)", "figure9_first_appearance.csv",
		func(ds *analysis.Dataset) []analysis.TimingRow {
			return analysis.FirstAppearance(ds, analysis.Fig9Feeds(ds))
		}, report.TimingTable, report.CSVTiming),
	single("Figure10", "Figure 10: first appearance (honeypot baseline)", "figure10_first_honeypot.csv",
		func(ds *analysis.Dataset) []analysis.TimingRow {
			return analysis.FirstAppearance(ds, analysis.HoneypotFeeds)
		}, report.TimingTable, report.CSVTiming),
	single("Figure11", "Figure 11: last appearance vs campaign end", "figure11_last_appearance.csv",
		func(ds *analysis.Dataset) []analysis.TimingRow {
			return analysis.LastAppearance(ds, analysis.HoneypotFeeds)
		}, report.TimingTable, report.CSVTiming),
	single("Figure12", "Figure 12: domain lifetime vs campaign duration", "figure12_duration.csv",
		func(ds *analysis.Dataset) []analysis.TimingRow {
			return analysis.Duration(ds, analysis.HoneypotFeeds)
		}, report.TimingTable, report.CSVTiming),
	single("Selection", "Greedy feed acquisition order (tagged domains, §5)", "selection_tagged.csv",
		func(ds *analysis.Dataset) []analysis.SelectionStep {
			return analysis.GreedySelection(ds, analysis.ClassTagged)
		}, report.SelectionTable, report.CSVSelection),
	{"Categories", func(ds *analysis.Dataset) figure {
		return figure{sections: []section{{"Tagged domains by goods category (extension)",
			report.CategoryTable(analysis.CategoryBreakdown(ds))}}}
	}},
	{"Reconstruction", func(ds *analysis.Dataset) figure {
		return figure{sections: []section{{"Campaign reconstruction from single feeds (extension)",
			report.ReconstructionTable(analysis.ReconstructAll(ds, 12*time.Hour))}}}
	}},
	{"CategoryShares", func(ds *analysis.Dataset) figure {
		return figure{sections: []section{{"Category volume shares per feed vs real mail (extension; §5's extrapolation warning)",
			report.SharesTable(analysis.CategoryShares(ds))}}}
	}},
}

// single is an entry with one report section and one CSV file over
// one analysis result.
func single[T any](name, title, file string, compute func(*analysis.Dataset) T,
	text func(T) string, csv func(io.Writer, T) error) figureEntry {
	return figureEntry{name, func(ds *analysis.Dataset) figure {
		r := compute(ds)
		return figure{
			sections: []section{{title, text(r)}},
			files:    []csvFile{{file, func(w io.Writer) error { return csv(w, r) }}},
		}
	}}
}
