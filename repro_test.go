package tasterschoice

// repro_test is the repository's single gate: one reduced-scale run
// through the entire pipeline, asserting the paper's headline findings
// and that every public deliverable (report, CSVs, advisor, selection)
// actually produces output. The per-mechanism detail lives in each
// package's tests; this is the "does the repo reproduce the paper"
// check a release would be cut against.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/simulate"
)

func TestReproductionGate(t *testing.T) {
	ds, err := simulate.Small(2010).Run()
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewStudy(ds)

	t.Run("headline: smallest feed, biggest coverage", func(t *testing.T) {
		var huSamples, mx2Samples int64
		for _, r := range study.Table1() {
			switch r.Name {
			case "Hu":
				huSamples = r.Samples
			case "mx2":
				mx2Samples = r.Samples
			}
		}
		if huSamples >= mx2Samples {
			t.Errorf("Hu samples %d not below mx2 %d", huSamples, mx2Samples)
		}
		tagged := analysis.Coverage(ds, analysis.ClassTagged)
		best := ""
		bestN := -1
		for _, r := range tagged {
			if r.Total > bestN {
				best, bestN = r.Name, r.Total
			}
		}
		if best != "Hu" {
			t.Errorf("best tagged coverage = %s, want Hu", best)
		}
	})

	t.Run("headline: poisoning collapses Bot and mx2", func(t *testing.T) {
		for _, r := range study.Table2() {
			switch r.Name {
			case "Bot":
				if r.DNS > 0.2 {
					t.Errorf("Bot DNS %.2f", r.DNS)
				}
			case "mx2":
				if r.DNS > 0.5 {
					t.Errorf("mx2 DNS %.2f", r.DNS)
				}
			}
		}
	})

	t.Run("headline: early warning order", func(t *testing.T) {
		rows := analysis.FirstAppearance(ds,
			[]string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"})
		med := map[string]float64{}
		for _, r := range rows {
			if r.Summary.N > 0 {
				med[r.Name] = r.Summary.Median
			}
		}
		if med["Hu"] >= med["mx1"] || med["dbl"] >= med["mx1"] {
			t.Errorf("onset medians: Hu %.1fh dbl %.1fh mx1 %.1fh",
				med["Hu"], med["dbl"], med["mx1"])
		}
	})

	t.Run("full report renders", func(t *testing.T) {
		var buf bytes.Buffer
		if err := study.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"Table 1", "Figure 12", "Greedy feed acquisition"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("report missing %q", want)
			}
		}
	})

	t.Run("csv outputs", func(t *testing.T) {
		dir := t.TempDir()
		if err := study.WriteCSVDir(dir); err != nil {
			t.Fatal(err)
		}
		matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil || len(matches) < 15 {
			t.Fatalf("csv files: %d err=%v", len(matches), err)
		}
		for _, m := range matches {
			if st, err := os.Stat(m); err != nil || st.Size() == 0 {
				t.Errorf("%s empty or unreadable", m)
			}
		}
	})

	t.Run("advisor answers every question", func(t *testing.T) {
		for _, q := range []core.Question{
			core.QCoverage, core.QPurity, core.QOnset,
			core.QCampaignEnd, core.QProportionality,
		} {
			if len(study.Recommend(q)) == 0 {
				t.Errorf("no ranking for %s", q)
			}
		}
	})
}

// defaultReport2010 is the SHA-256 of the full report for the default
// (paper-scale) scenario with seed 2010, the run the README documents.
const defaultReport2010 = "7b165e4bc003f82072897548b7ed0a8c70c160aef9a95cd501cf3b883596e082"

// defaultReports pins the full default-scale report's SHA-256 for
// three seeds.
var defaultReports = []struct {
	seed   uint64
	digest string
}{
	{1, "136191e27096389f582eea0edd798b8ff49d3fffd6fef0776f13d108af8966a6"},
	{2, "31e1d4ec620b3ef1f34c976120779b9df23d23c620f597ec6f609ca1732b523b"},
	{2010, defaultReport2010},
}

// TestDefaultReportDigest pins the paper-scale report byte for byte:
// a change to generation, collection, labeling, the analyses or the
// renderers that moves any report byte at the default scale fails it.
func TestDefaultReportDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale pipeline runs; skipped with -short")
	}
	for _, tc := range defaultReports {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			ds, err := simulate.Default(tc.seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := core.NewStudy(ds).WriteReport(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Fatalf("default-scale report digest = %s, want %s", got, tc.digest)
			}
		})
	}
}
