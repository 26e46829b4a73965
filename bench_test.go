package tasterschoice

// These go test benchmarks time the pipeline's stages over warm
// inputs and measure the ablations called out in DESIGN.md. The
// per-figure benchmarks are BenchmarkFigures in internal/core, one
// sub-benchmark per entry of the figure table. They are for profiling
// one step in isolation; the repo's end-to-end benchmark, which times
// cold runs, is perfbench/ (see perfbench/README.md).

import (
	"sync"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
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

// BenchmarkFullReport measures computing and rendering every table and
// figure. A Study renders once, so each iteration takes a new one.
func BenchmarkFullReport(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.NewStudy(ds).WriteReport(discard{}); err != nil {
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
		for _, r := range analysis.FirstAppearance(ds, analysis.OnsetFeeds) {
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
		for _, r := range analysis.FirstAppearance(ds, analysis.OnsetFeeds) {
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
