package core

import (
	"fmt"
	"io"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/report"
)

// MetricDelta is one headline metric compared across two studies —
// the library form of the ablation benchmarks: run a scenario twice
// with one mechanism toggled and diff what matters.
type MetricDelta struct {
	Name string
	A, B float64
	// Unit is a short label ("%", "h", "x").
	Unit string
}

// Delta returns B − A.
func (m MetricDelta) Delta() float64 { return m.B - m.A }

// Compare computes the headline metrics for two studies (A = baseline,
// B = variant). The metric set mirrors EXPERIMENTS.md's shape checks.
func Compare(a, b *Study) []MetricDelta {
	metric := func(name, unit string, f func(*Study) float64) MetricDelta {
		return MetricDelta{Name: name, A: f(a), B: f(b), Unit: unit}
	}
	return []MetricDelta{
		metric("Hu tagged coverage", "%", func(s *Study) float64 {
			return taggedCoverageFrac(s, "Hu") * 100
		}),
		metric("uribl tagged coverage", "%", func(s *Study) float64 {
			return taggedCoverageFrac(s, "uribl") * 100
		}),
		metric("Bot DNS purity", "%", func(s *Study) float64 {
			for _, r := range analysis.Purity(s.DS) {
				if r.Name == "Bot" {
					return r.DNS * 100
				}
			}
			return 0
		}),
		metric("Hu samples / mx1 samples", "x", func(s *Study) float64 {
			hu := float64(s.DS.Feed("Hu").Samples())
			mx := float64(s.DS.Feed("mx1").Samples())
			if mx == 0 {
				return 0
			}
			return hu / mx
		}),
		metric("mx2 vs Mail variation distance", "", func(s *Study) float64 {
			vd := analysis.VariationDistances(s.DS)
			for i, n := range vd.Names {
				if n == "mx2" {
					return vd.Value[i][0]
				}
			}
			return 1
		}),
		metric("mx1 median onset", "h", func(s *Study) float64 {
			for _, r := range analysis.FirstAppearance(s.DS, analysis.OnsetFeeds) {
				if r.Name == "mx1" && r.Summary.N > 0 {
					return r.Summary.Median
				}
			}
			return 0
		}),
	}
}

// taggedCoverageFrac is a feed's tagged domains over the union: its
// "All" column in Figure 2's tagged matrix.
func taggedCoverageFrac(s *Study, feed string) float64 {
	m := analysis.Intersections(s.DS, analysis.ClassTagged)
	for i, name := range m.Names {
		if name == feed {
			return m.Frac[i][len(m.Names)]
		}
	}
	return 0
}

// WriteComparison renders a Compare result.
func WriteComparison(w io.Writer, aName, bName string, deltas []MetricDelta) {
	rows := make([][]string, len(deltas))
	for i, d := range deltas {
		rows[i] = []string{
			d.Name,
			fmt.Sprintf("%.2f%s", d.A, d.Unit),
			fmt.Sprintf("%.2f%s", d.B, d.Unit),
			fmt.Sprintf("%+.2f", d.Delta()),
		}
	}
	fmt.Fprintf(w, "%s\n", report.Table([]string{"Metric", aName, bName, "Δ"}, rows))
}
