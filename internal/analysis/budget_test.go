package analysis_test

import (
	"fmt"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// labelingBudget is the most heap allocations labeling the seed-2010
// default-scale collection may make. Labeling makes ~40 for ~127k
// domains: labels sit in dense arrays indexed by symbol ID, each
// worker reuses one crawler, and the crawl, the zone check and the
// ground truth read each domain by its ID, so even a bare-root visit
// builds no URL. One allocation per domain-only domain (~7.5k) would
// blow the budget many times over.
const labelingBudget = 100

// TestBuildLabelsAllocBudget holds analysis.BuildLabelsConcurrent to
// labelingBudget at one and at four workers. The world and the
// collection are built once, outside the count. testing.AllocsPerRun
// pins GOMAXPROCS to 1, so the count does not depend on the machine's
// cores.
func TestBuildLabelsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale labeling runs; skipped with -short")
	}
	sc := simulate.Default(2010)
	world := ecosystem.MustGenerate(sc.Ecosystem)
	res, err := mailflow.New(world, sc.Collection).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			allocs := testing.AllocsPerRun(1, func() {
				analysis.BuildLabelsConcurrent(world, res, workers)
			})
			t.Logf("%.0f allocs per run (budget %d)", allocs, labelingBudget)
			if allocs > labelingBudget {
				t.Fatalf("labeling made %.0f allocations, budget %d", allocs, labelingBudget)
			}
		})
	}
}
