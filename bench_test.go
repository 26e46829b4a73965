package tasterschoice

// These go test benchmarks regenerate every table and figure in the
// paper's evaluation (Tables 1-3, Figures 1-12) from one warm
// default-scale dataset, and measure the ablations called out in
// DESIGN.md. Run with -v to also print each reproduced table/figure
// once. They are for profiling one step in isolation; the repo's
// end-to-end benchmark, which times cold runs, is perfbench/ (see
// perfbench/README.md).

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
)

var (
	benchOnce sync.Once
	benchDS   *analysis.Dataset
)

// benchDataset builds the default-scale dataset once per test binary.
func benchDataset(b *testing.B) *analysis.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = simulate.Default(2010).MustRun()
	})
	return benchDS
}

var printedSections sync.Map

// emit prints a reproduced section once per binary when -v is set.
func emit(b *testing.B, title, body string) {
	b.Helper()
	if !testing.Verbose() {
		return
	}
	if _, dup := printedSections.LoadOrStore(title, true); dup {
		return
	}
	fmt.Fprintf(os.Stdout, "== %s ==\n%s\n", title, body)
}

func BenchmarkTable1FeedSummary(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.FeedSummary
	for i := 0; i < b.N; i++ {
		rows = analysis.Table1(ds)
	}
	b.StopTimer()
	emit(b, "Table 1", report.FeedSummaryTable(rows))
}

func BenchmarkTable2Purity(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.PurityRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Purity(ds)
	}
	b.StopTimer()
	emit(b, "Table 2", report.PurityTable(rows))
}

func BenchmarkTable3Coverage(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var all, live, tagged []analysis.CoverageRow
	for i := 0; i < b.N; i++ {
		all = analysis.Coverage(ds, analysis.ClassAll)
		live = analysis.Coverage(ds, analysis.ClassLive)
		tagged = analysis.Coverage(ds, analysis.ClassTagged)
	}
	b.StopTimer()
	emit(b, "Table 3", report.CoverageTable(all, live, tagged))
}

func BenchmarkFigure1DistinctVsExclusive(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var live, tagged []analysis.CoverageRow
	for i := 0; i < b.N; i++ {
		live = analysis.Coverage(ds, analysis.ClassLive)
		tagged = analysis.Coverage(ds, analysis.ClassTagged)
	}
	b.StopTimer()
	emit(b, "Figure 1 (live)", report.ExclusiveScatter(live))
	emit(b, "Figure 1 (tagged)", report.ExclusiveScatter(tagged))
}

func BenchmarkFigure2PairwiseIntersection(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var live, tagged *analysis.Matrix
	for i := 0; i < b.N; i++ {
		live = analysis.Intersections(ds, analysis.ClassLive)
		tagged = analysis.Intersections(ds, analysis.ClassTagged)
	}
	b.StopTimer()
	emit(b, "Figure 2 (live)", report.MatrixTable(live))
	emit(b, "Figure 2 (tagged)", report.MatrixTable(tagged))
}

func BenchmarkFigure3VolumeCoverage(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.VolumeRow
	for i := 0; i < b.N; i++ {
		rows = analysis.VolumeCoverage(ds)
	}
	b.StopTimer()
	emit(b, "Figure 3", report.VolumeBars(rows))
}

func BenchmarkFigure4ProgramCoverage(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var m *analysis.Matrix
	for i := 0; i < b.N; i++ {
		m = analysis.ProgramCoverage(ds)
	}
	b.StopTimer()
	emit(b, "Figure 4", report.MatrixTable(m))
}

func BenchmarkFigure5AffiliateCoverage(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var m *analysis.Matrix
	for i := 0; i < b.N; i++ {
		m = analysis.AffiliateCoverage(ds)
	}
	b.StopTimer()
	emit(b, "Figure 5", report.MatrixTable(m))
}

func BenchmarkFigure6RevenueCoverage(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.RevenueRow
	var total float64
	for i := 0; i < b.N; i++ {
		rows, total = analysis.RevenueCoverage(ds)
	}
	b.StopTimer()
	emit(b, "Figure 6", report.RevenueBars(rows, total))
}

func BenchmarkFigure7VariationDistance(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var p *analysis.PairwiseDist
	for i := 0; i < b.N; i++ {
		p = analysis.VariationDistances(ds)
	}
	b.StopTimer()
	emit(b, "Figure 7", report.PairwiseTable(p))
}

func BenchmarkFigure8KendallTau(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var p *analysis.PairwiseDist
	for i := 0; i < b.N; i++ {
		p = analysis.KendallTaus(ds)
	}
	b.StopTimer()
	emit(b, "Figure 8", report.PairwiseTable(p))
}

func BenchmarkFigure9FirstAppearance(b *testing.B) {
	ds := benchDataset(b)
	names := analysis.Fig9Feeds(ds)
	b.ResetTimer()
	var rows []analysis.TimingRow
	for i := 0; i < b.N; i++ {
		rows = analysis.FirstAppearance(ds, names)
	}
	b.StopTimer()
	emit(b, "Figure 9", report.TimingTable(rows))
}

func BenchmarkFigure10FirstAppearanceHoneypot(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.TimingRow
	for i := 0; i < b.N; i++ {
		rows = analysis.FirstAppearance(ds, analysis.HoneypotFeeds)
	}
	b.StopTimer()
	emit(b, "Figure 10", report.TimingTable(rows))
}

func BenchmarkFigure11LastAppearance(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.TimingRow
	for i := 0; i < b.N; i++ {
		rows = analysis.LastAppearance(ds, analysis.HoneypotFeeds)
	}
	b.StopTimer()
	emit(b, "Figure 11", report.TimingTable(rows))
}

func BenchmarkFigure12Duration(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var rows []analysis.TimingRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Duration(ds, analysis.HoneypotFeeds)
	}
	b.StopTimer()
	emit(b, "Figure 12", report.TimingTable(rows))
}

// BenchmarkPipelineEndToEnd measures the entire reproduction: world
// generation, feed collection, crawl labeling.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulate.Small(uint64(i)).MustRun()
	}
}

// BenchmarkCollectionEngine times the mailflow engine alone over the
// warm default-scale world.
func BenchmarkCollectionEngine(b *testing.B) {
	ds := benchDataset(b)
	cfg := simulate.Default(2010).Collection
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mailflow.New(ds.World, cfg).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReport measures rendering every table and figure.
func BenchmarkFullReport(b *testing.B) {
	study := core.NewStudy(benchDataset(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := study.WriteReport(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// --- Ablations (DESIGN.md §5) -------------------------------------

// ablate runs a small scenario with a config mutation and reports the
// named metric via b.ReportMetric, so `-bench Ablation` shows how each
// mechanism moves the headline numbers.
func ablate(b *testing.B, mutate func(*simulate.Scenario), metric func(*analysis.Dataset) (float64, string)) {
	b.Helper()
	var value float64
	var unit string
	for i := 0; i < b.N; i++ {
		scen := simulate.Small(4242)
		if mutate != nil {
			mutate(&scen)
		}
		ds := scen.MustRun()
		value, unit = metric(ds)
	}
	b.ReportMetric(value, unit)
}

// huVolumeRatio returns Hu samples relative to the mean honeypot feed.
func huVolumeRatio(ds *analysis.Dataset) (float64, string) {
	hu := float64(ds.Feed("Hu").Samples())
	var hp float64
	for _, n := range []string{"mx1", "mx3", "Ac1"} {
		hp += float64(ds.Feed(n).Samples())
	}
	return hu / (hp / 3), "hu/honeypot-samples"
}

// BenchmarkAblationFilterFeedback disables the webmail provider's
// report-driven filtering: Hu's volume balloons while its unique-domain
// coverage stays put — the mechanism behind the paper's "smallest feed,
// biggest coverage" paradox.
func BenchmarkAblationFilterFeedback(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		ablate(b, nil, huVolumeRatio)
	})
	b.Run("off", func(b *testing.B) {
		ablate(b, func(s *simulate.Scenario) {
			s.Collection.FilterAfterReport = 0
		}, huVolumeRatio)
	})
}

// BenchmarkAblationPoisoning toggles the Rustock episode; without it,
// Bot and mx2 regain normal DNS purity.
func BenchmarkAblationPoisoning(b *testing.B) {
	metric := func(ds *analysis.Dataset) (float64, string) {
		for _, r := range analysis.Purity(ds) {
			if r.Name == "Bot" {
				return r.DNS * 100, "bot-dns-%"
			}
		}
		return 0, "bot-dns-%"
	}
	b.Run("on", func(b *testing.B) { ablate(b, nil, metric) })
	b.Run("off", func(b *testing.B) {
		ablate(b, func(s *simulate.Scenario) {
			s.Collection.PoisonBotArrivals = 0
			s.Collection.PoisonMX2Arrivals = 0
		}, metric)
	})
}

// BenchmarkAblationStealthLead removes the deliverability-testing
// lead-in; honeypot first-appearance latency collapses toward zero and
// the Hu/dbl early-warning advantage disappears.
func BenchmarkAblationStealthLead(b *testing.B) {
	metric := func(ds *analysis.Dataset) (float64, string) {
		rows := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		for _, r := range rows {
			if r.Name == "mx1" {
				return r.Summary.Median, "mx1-median-hours"
			}
		}
		return 0, "mx1-median-hours"
	}
	b.Run("on", func(b *testing.B) { ablate(b, nil, metric) })
	b.Run("off", func(b *testing.B) {
		ablate(b, func(s *simulate.Scenario) {
			s.Collection.StealthLeadMinDays = 0
			s.Collection.StealthLeadMaxDays = 0
		}, metric)
	})
}

// BenchmarkAblationMegaCampaigns removes the months-long blasts; the
// Mail column of the proportionality analysis degrades for every feed
// because a five-day oracle window no longer samples the dominant
// volume.
func BenchmarkAblationMegaCampaigns(b *testing.B) {
	metric := func(ds *analysis.Dataset) (float64, string) {
		vd := analysis.VariationDistances(ds)
		for i, name := range vd.Names {
			if name == "mx2" {
				return vd.Value[i][0], "mx2-vs-mail-delta"
			}
		}
		return 1, "mx2-vs-mail-delta"
	}
	b.Run("on", func(b *testing.B) { ablate(b, nil, metric) })
	b.Run("off", func(b *testing.B) {
		ablate(b, func(s *simulate.Scenario) {
			s.Ecosystem.MegaCampaigns = 0
		}, metric)
	})
}

// BenchmarkAblationBlacklistLatency measures how dbl's onset ranking
// responds to a week of listing delay.
func BenchmarkAblationBlacklistLatency(b *testing.B) {
	metric := func(ds *analysis.Dataset) (float64, string) {
		rows := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		for _, r := range rows {
			if r.Name == "dbl" {
				return r.Summary.Median, "dbl-median-hours"
			}
		}
		return 0, "dbl-median-hours"
	}
	b.Run("fast", func(b *testing.B) { ablate(b, nil, metric) })
	b.Run("slow", func(b *testing.B) {
		ablate(b, func(s *simulate.Scenario) {
			s.Collection.DBL.LatencyMedianHours = 168
		}, metric)
	})
}

// BenchmarkCollectionOnly isolates the mailflow engine (feed
// collection over a fixed world) from generation and labeling.
func BenchmarkCollectionOnly(b *testing.B) {
	scen := simulate.Small(11)
	world := ecosystem.MustGenerate(scen.Ecosystem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mailflow.New(world, scen.Collection).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelingOnly isolates crawl labeling.
func BenchmarkLabelingOnly(b *testing.B) {
	scen := simulate.Small(11)
	world := ecosystem.MustGenerate(scen.Ecosystem)
	res, err := mailflow.New(world, scen.Collection).Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.BuildLabels(world, res)
	}
}
