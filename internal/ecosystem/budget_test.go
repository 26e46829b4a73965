package ecosystem

import "testing"

// generateBudget is the most heap allocations a default seed-2010
// Generate may make: 10% above the ~26.7k it makes for its 79,200
// symbols. Names and URLs are built in a reused buffer and copied into
// the symbol table's byte chunks, and the per-domain ground truth and
// the registry are slices sized once; a string per symbol, a map entry
// or a heap object per domain would each add tens of thousands.
const generateBudget = 29_400

// TestGenerateAllocBudget holds a default seed-2010 Generate to
// generateBudget allocations. testing.AllocsPerRun pins GOMAXPROCS to
// 1, and Generate runs on one goroutine, so the count does not depend
// on the machine.
func TestGenerateAllocBudget(t *testing.T) {
	cfg := DefaultConfig(2010)
	allocs := testing.AllocsPerRun(1, func() { MustGenerate(cfg) })
	t.Logf("%.0f allocs per Generate (budget %d)", allocs, generateBudget)
	if allocs > generateBudget {
		t.Fatalf("Generate made %.0f allocations, budget %d", allocs, generateBudget)
	}
}

// TestCampaignsAllocatedOnce checks that campaignCapacity covers every
// campaign a default Generate draws, so genCampaigns allocates
// w.Campaigns once and never regrows it.
func TestCampaignsAllocatedOnce(t *testing.T) {
	for _, seed := range []uint64{1, 2, 2010} {
		w := MustGenerate(DefaultConfig(seed))
		if n, c := len(w.Campaigns), w.campaignCapacity(); n > c || cap(w.Campaigns) != c {
			t.Errorf("seed %d: %d campaigns in a slice of capacity %d, estimate %d", seed, n, cap(w.Campaigns), c)
		}
	}
}
