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
		for _, r := range analysis.Table1(ds) {
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
		for _, r := range analysis.Purity(ds) {
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
		med := map[string]float64{}
		for _, r := range analysis.FirstAppearance(ds, analysis.OnsetFeeds) {
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

// defaultReports pins, for three seeds, the SHA-256 of the full
// default-scale report and of the CSV files WriteCSVDir writes (see
// csvDirDigest).
var defaultReports = []struct {
	seed   uint64
	digest string
	csv    string
}{
	{1, "136191e27096389f582eea0edd798b8ff49d3fffd6fef0776f13d108af8966a6",
		"36467c3ca8b30e7bd672eb9192ff4d66b6b317d3c4451ed22352b47239119f57"},
	{2, "31e1d4ec620b3ef1f34c976120779b9df23d23c620f597ec6f609ca1732b523b",
		"2fde3b83abc58ba118d457ef735f5ee1d6741d32ea45fcfd4adb608e87d5fd94"},
	{2010, defaultReport2010,
		"dcc50146a12eadbb5b742935e44e0eab5a8b7eb1eee2c1ea80b0e5baf83e2898"},
}

// csvDirDigest hashes every file in dir in name order: the file's name
// and length on one line, then its bytes.
func csvDirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDefaultReportDigest pins the paper-scale report and CSV export
// byte for byte: a change to generation, collection, labeling, the
// analyses or the renderers that moves any report or CSV byte at the
// default scale fails it.
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
			study := core.NewStudy(ds)
			h := sha256.New()
			if err := study.WriteReport(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("default-scale report digest = %s, want %s", got, tc.digest)
			}
			dir := t.TempDir()
			if err := study.WriteCSVDir(dir); err != nil {
				t.Fatal(err)
			}
			if got := csvDirDigest(t, dir); got != tc.csv {
				t.Errorf("default-scale CSV digest = %s, want %s", got, tc.csv)
			}
		})
	}
}
