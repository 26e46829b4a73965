package core

import (
	"fmt"
	"sort"

	"tasterschoice/internal/analysis"
)

// Question is a measurement question a researcher wants a feed for —
// the axes of the paper's §5 guidance.
type Question uint8

const (
	// QCoverage: which feed captures the most spam domains?
	QCoverage Question = iota
	// QPurity: which feed has the fewest benign/junk domains?
	QPurity
	// QOnset: which feed lists domains soonest after campaign start?
	QOnset
	// QCampaignEnd: which feed's last appearance tracks campaign end?
	QCampaignEnd
	// QProportionality: which feed's volumes track real mail?
	QProportionality
)

// String names the question.
func (q Question) String() string {
	switch q {
	case QCoverage:
		return "coverage"
	case QPurity:
		return "purity"
	case QOnset:
		return "onset timing"
	case QCampaignEnd:
		return "campaign-end timing"
	case QProportionality:
		return "proportionality"
	default:
		return "unknown"
	}
}

// Ranked is one feed's standing for a question; lower Rank is better.
type Ranked struct {
	Feed  string
	Rank  int
	Score float64
	// Note explains the score's meaning.
	Note string
}

// Recommend ranks the feeds for a question using the study's own
// measurements — the paper's §5 recommendations, derived from data
// rather than asserted.
func (s *Study) Recommend(q Question) []Ranked {
	var ranked []Ranked
	switch q {
	case QCoverage:
		// A feed's share of the tagged union is its "All" column in
		// Figure 2's tagged matrix.
		m := analysis.Intersections(s.DS, analysis.ClassTagged)
		for i, name := range m.Names {
			frac := m.Frac[i][len(m.Names)]
			ranked = append(ranked, Ranked{
				Feed: name, Score: frac,
				Note: fmt.Sprintf("covers %.0f%% of tagged domains", frac*100),
			})
		}
		sortDesc(ranked)
	case QPurity:
		for _, r := range analysis.Purity(s.DS) {
			// Positive indicators up, benign contamination down.
			score := (r.DNS+r.HTTP)/2 - 5*(r.Alexa+r.ODP)
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: score,
				Note: fmt.Sprintf("DNS %.0f%%, HTTP %.0f%%, benign %.1f%%",
					r.DNS*100, r.HTTP*100, (r.Alexa+r.ODP)*100),
			})
		}
		sortDesc(ranked)
	case QOnset:
		for _, r := range analysis.FirstAppearance(s.DS, analysis.OnsetFeeds) {
			if r.Summary.N == 0 {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: r.Summary.Median,
				Note: fmt.Sprintf("median first appearance %.1fh after campaign start", r.Summary.Median),
			})
		}
		sortAsc(ranked)
	case QCampaignEnd:
		for _, r := range analysis.LastAppearance(s.DS, analysis.HoneypotFeeds) {
			if r.Summary.N == 0 {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: r.Name, Score: r.Summary.Median,
				Note: fmt.Sprintf("median last-appearance gap %.1fh before campaign end", r.Summary.Median),
			})
		}
		sortAsc(ranked)
	case QProportionality:
		vd := analysis.VariationDistances(s.DS)
		for i, name := range vd.Names {
			if name == analysis.MailColumn {
				continue
			}
			ranked = append(ranked, Ranked{
				Feed: name, Score: vd.Value[i][0],
				Note: fmt.Sprintf("variation distance to real mail %.2f", vd.Value[i][0]),
			})
		}
		sortAsc(ranked)
	}
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked
}

func sortDesc(r []Ranked) {
	sort.SliceStable(r, func(i, j int) bool { return r[i].Score > r[j].Score })
}

func sortAsc(r []Ranked) {
	sort.SliceStable(r, func(i, j int) bool { return r[i].Score < r[j].Score })
}
