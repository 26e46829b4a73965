package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/simulate"
)

var (
	studyOnce sync.Once
	studyVal  *Study
)

func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		studyVal = NewStudy(simulate.Small(7).MustRun())
	})
	return studyVal
}

func TestWriteReportContainsEverything(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
		"Figure 11", "Figure 12",
		"Hu", "uribl", "mx2", "Bot", "Hyb", "Mail",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestRecommendCoverage(t *testing.T) {
	s := testStudy(t)
	ranked := s.Recommend(QCoverage)
	if len(ranked) != 10 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if ranked[0].Feed != "Hu" {
		t.Errorf("best coverage feed = %s, want Hu (paper §5)", ranked[0].Feed)
	}
	for i, r := range ranked {
		if r.Rank != i+1 {
			t.Errorf("rank %d at index %d", r.Rank, i)
		}
		if i > 0 && r.Score > ranked[i-1].Score {
			t.Errorf("coverage ranking not descending at %d", i)
		}
	}
}

func TestRecommendPurity(t *testing.T) {
	s := testStudy(t)
	ranked := s.Recommend(QPurity)
	pos := map[string]int{}
	for _, r := range ranked {
		pos[r.Feed] = r.Rank
	}
	// Blacklists must outrank the poisoned feeds.
	for _, bl := range []string{"dbl", "uribl"} {
		for _, bad := range []string{"Bot", "mx2"} {
			if pos[bl] >= pos[bad] {
				t.Errorf("%s (rank %d) should outrank %s (rank %d)", bl, pos[bl], bad, pos[bad])
			}
		}
	}
}

func TestRecommendOnset(t *testing.T) {
	s := testStudy(t)
	ranked := s.Recommend(QOnset)
	if len(ranked) == 0 {
		t.Fatal("no onset ranking")
	}
	best := ranked[0].Feed
	if best != "Hu" && best != "dbl" && best != "uribl" {
		t.Errorf("fastest onset feed = %s, want a human/blacklist feed", best)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score < ranked[i-1].Score {
			t.Errorf("onset ranking not ascending at %d", i)
		}
	}
}

func TestRecommendProportionality(t *testing.T) {
	s := testStudy(t)
	ranked := s.Recommend(QProportionality)
	if len(ranked) != 6 {
		t.Fatalf("ranked = %d, want the six volume feeds", len(ranked))
	}
	for _, r := range ranked {
		if r.Feed == analysis.MailColumn {
			t.Error("Mail ranked against itself")
		}
	}
	// Ac2 is the paper's most-unlike-everything feed.
	if last := ranked[len(ranked)-1].Feed; last != "Ac2" {
		t.Logf("note: worst proportionality feed = %s (paper: Ac2)", last)
	}
}

func TestRecommendCampaignEnd(t *testing.T) {
	s := testStudy(t)
	ranked := s.Recommend(QCampaignEnd)
	if len(ranked) != 5 {
		t.Fatalf("ranked = %d, want the five honeypot feeds", len(ranked))
	}
}

func TestQuestionStrings(t *testing.T) {
	for _, q := range []Question{QCoverage, QPurity, QOnset, QCampaignEnd, QProportionality} {
		if q.String() == "unknown" {
			t.Errorf("question %d has no name", q)
		}
	}
}

func TestCompare(t *testing.T) {
	base := testStudy(t)
	// Variant: no poisoning.
	scen := simulate.Small(7)
	scen.Collection.PoisonBotArrivals = 0
	scen.Collection.PoisonMX2Arrivals = 0
	variant := NewStudy(scen.MustRun())

	deltas := Compare(base, variant)
	if len(deltas) == 0 {
		t.Fatal("no metrics")
	}
	byName := map[string]MetricDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	bot := byName["Bot DNS purity"]
	if bot.B <= bot.A {
		t.Fatalf("disabling poisoning should raise Bot DNS purity: %+v", bot)
	}
	if bot.Delta() <= 0 {
		t.Fatalf("delta: %+v", bot)
	}

	var buf bytes.Buffer
	WriteComparison(&buf, "base", "no-poison", deltas)
	if !strings.Contains(buf.String(), "Bot DNS purity") {
		t.Fatalf("rendered comparison missing metric:\n%s", buf.String())
	}
}

func TestSelectionInStudy(t *testing.T) {
	s := testStudy(t)
	steps := analysis.GreedySelection(s.DS, analysis.ClassTagged)
	if len(steps) != 10 || steps[0].Feed != "Hu" {
		t.Fatalf("selection: %+v", steps[:1])
	}
}

func TestWriteCSVDir(t *testing.T) {
	s := testStudy(t)
	dir := t.TempDir()
	if err := s.WriteCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 15 {
		t.Fatalf("only %d CSV files", len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", e.Name())
		}
	}
}

// BenchmarkFigures times each entry of the figure table, analysis and
// rendering together, over one warm default-scale dataset.
func BenchmarkFigures(b *testing.B) {
	ds := simulate.Default(2010).MustRun()
	ds.Index() // built lazily by the first analysis; keep it out of the timings
	for _, e := range figures {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figureSink = e.render(ds)
			}
		})
	}
}

var figureSink figure
