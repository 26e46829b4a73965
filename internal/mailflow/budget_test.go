package mailflow_test

import (
	"fmt"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// datasetBuildBudget is the most heap allocations one collection run
// over the seed-2010 default-scale world may make. A run makes ~35k,
// far fewer than the observations it records: the engine works on
// interned symbol IDs and columnar batches. A string built per
// message or per observation would blow the budget many times over.
const datasetBuildBudget = 110_000

// TestRunAllocBudget holds mailflow.New(world, cfg).Run() to
// datasetBuildBudget at the default and at four workers. The world is
// built once, outside the count. testing.AllocsPerRun pins GOMAXPROCS
// to 1, so the count does not depend on the machine's cores.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale collection runs; skipped with -short")
	}
	sc := simulate.Default(2010)
	world := ecosystem.MustGenerate(sc.Ecosystem)
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := sc.Collection
			cfg.Workers = workers
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				_, err = mailflow.New(world, cfg).Run()
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs per run (budget %d)", allocs, datasetBuildBudget)
			if allocs > datasetBuildBudget {
				t.Fatalf("collection run made %.0f allocations, budget %d", allocs, datasetBuildBudget)
			}
		})
	}
}
