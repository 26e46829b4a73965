package dnsblplane

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"tasterschoice/internal/simclock"
)

// applyBytes bulk-loads n names into a fresh four-shard zone, then
// applies batches of 256 new names one at a time and returns the
// median heap bytes one Apply allocates. The first batch may double
// every shard's fan-out; the median is the steady state.
func applyBytes(t *testing.T, n int) uint64 {
	t.Helper()
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	load := make([]Record, n)
	for i := range load {
		load[i] = Record{Domain: fmt.Sprintf("load%07d.example", i), First: simclock.PaperStart, Feed: "dbl"}
	}
	if err := p.Apply("dbl.test", load); err != nil {
		t.Fatal(err)
	}
	const batches, batchSize = 9, 256
	var samples []uint64
	var ms runtime.MemStats
	for b := 0; b < batches; b++ {
		batch := make([]Record, batchSize)
		for i := range batch {
			batch[i] = Record{Domain: fmt.Sprintf("delta%d-%03d.example", b, i), First: simclock.PaperStart, Feed: "dbl"}
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := p.Apply("dbl.test", batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		samples = append(samples, ms.TotalAlloc-before)
	}
	if got, err := p.Listed("dbl.test"); err != nil || got != n+batches*batchSize {
		t.Fatalf("listed %d names (err %v), want %d", got, err, n+batches*batchSize)
	}
	slices.Sort(samples)
	return samples[len(samples)/2]
}

// TestApplyCostFlatInZoneSize: a fixed-size delta batch must cost what
// it touches, not what the zone holds. Copying each touched shard
// whole made a 256-name Apply allocate ~8× as much at 8N names as at
// N, so ingesting a feed in fixed batches cost O(N²/shards). The test
// counts bytes rather than time, so it holds under -race and on loaded
// machines.
func TestApplyCostFlatInZoneSize(t *testing.T) {
	const n = 16_384
	small := applyBytes(t, n)
	large := applyBytes(t, 8*n)
	t.Logf("bytes per 256-name Apply: %d at %d names, %d at %d", small, n, large, 8*n)
	if large > 2*small {
		t.Fatalf("a 256-name Apply allocates %d bytes at %d names, %.1f× the %d at %d: batch cost grows with the zone",
			large, 8*n, float64(large)/float64(small), small, n)
	}
}
