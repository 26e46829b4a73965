// Quickstart: run a reduced Taster's Choice scenario end to end and
// print the headline findings — which feed wins on which question.
package main

import (
	"fmt"
	"os"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
)

func main() {
	// A scenario is fully determined by its seed: same seed, same
	// feeds, same numbers.
	ds, err := simulate.Small(2010).Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
	study := core.NewStudy(ds)

	fmt.Println("Ten spam feeds, one synthetic ecosystem, three months:")
	fmt.Println()
	fmt.Println(report.FeedSummaryTable(analysis.Table1(ds)))

	// The paper's central surprise: the smallest feed by volume has
	// the greatest coverage.
	var hu, best int
	var bestName string
	for _, r := range analysis.Coverage(ds, analysis.ClassTagged) {
		if r.Name == "Hu" {
			hu = r.Total
		} else if r.Total > best {
			best, bestName = r.Total, r.Name
		}
	}
	fmt.Printf("Hu contributes %d tagged domains — more than any other feed (next: %s with %d)\n\n",
		hu, bestName, best)

	fmt.Println("Which feed should you use? Depends on the question:")
	for _, q := range []core.Question{
		core.QCoverage, core.QPurity, core.QOnset, core.QProportionality,
	} {
		ranked := study.Recommend(q)
		if len(ranked) == 0 {
			continue
		}
		fmt.Printf("  %-20s -> %-5s (%s)\n", q, ranked[0].Feed, ranked[0].Note)
	}
}
