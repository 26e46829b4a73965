package mailflow_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// datasetBuildBudget is the most heap allocations one collection run
// over the seed-2010 default-scale world may make. A run makes ~10k,
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

// runBytesBudgetMiB is the most heap memory, in MiB, one collection
// run over a fresh seed-2010 default-scale world may allocate: 10%
// above the ~52.4 MiB it allocates at one and at four workers.
// Planning buffers observations and batch times in fixed-size arena
// blocks, the mint's symbols go into the table's byte chunks, and the
// feed columns are sized before the mint's replay. Per-campaign plan
// slices that grew by append brought a run to ~173 MiB; a string per
// symbol and feed columns regrown by append, to ~81 MiB.
const runBytesBudgetMiB = 58

// TestRunAllocBytesBudget holds one cold collection run to
// runBytesBudgetMiB at the default and at four workers, read from the
// runtime's /gc/heap/allocs:bytes counter as perfbench reads
// mailflow.alloc_mb. Each run gets a freshly generated world, since a
// run interns its junk and poison names into the world's table.
// GOMAXPROCS is pinned to 1, as testing.AllocsPerRun pins it, so the
// default worker count, and with it the number of planning arenas,
// does not depend on the machine.
func TestRunAllocBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale collection runs; skipped with -short")
	}
	sc := simulate.Default(2010)
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			world := ecosystem.MustGenerate(sc.Ecosystem)
			cfg := sc.Collection
			cfg.Workers = workers
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			before := heapAllocBytes()
			if _, err := mailflow.New(world, cfg).Run(); err != nil {
				t.Fatal(err)
			}
			mib := float64(heapAllocBytes()-before) / (1 << 20)
			t.Logf("%.1f MiB allocated per run (budget %d MiB)", mib, runBytesBudgetMiB)
			if mib > runBytesBudgetMiB {
				t.Fatalf("collection run allocated %.1f MiB, budget %d MiB", mib, runBytesBudgetMiB)
			}
		})
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
