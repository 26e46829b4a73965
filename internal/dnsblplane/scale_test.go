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

// footprint bulk-loads n names into a fresh four-shard zone in one
// Apply and returns the heap bytes the index retains per name, with
// the caller still holding the records (and so the name strings), and
// the mean probe length of a lookup over the listed names and over as
// many never-seen ones.
func footprint(t *testing.T, n int) (bytesPerName, listedProbe, missProbe float64) {
	t.Helper()
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Domain: fmt.Sprintf("load%07d.example", i), First: simclock.PaperStart, Feed: "dbl"}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	if err := p.Apply("dbl.test", recs); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bytesPerName = float64(int64(ms.HeapAlloc)-int64(before)) / float64(n)

	z := p.zones[0]
	listed, miss := 0, 0
	for i := range recs {
		listed += probeLen(z, recs[i].Domain)
		miss += probeLen(z, fmt.Sprintf("miss%07d.example", i))
	}
	runtime.KeepAlive(recs)
	return bytesPerName, float64(listed) / float64(n), float64(miss) / float64(n)
}

// probeLen counts the slots a lookup of a folded name reads: through
// the one holding it, or through the free slot that ends a miss.
func probeLen(z *zone, name string) int {
	h := hashName(name)
	snap := z.shards[uint32(h)&z.mask].load()
	b := snap.buckets[uint32(h>>32)&uint32(len(snap.buckets)-1)]
	if len(b) == 0 {
		return 0
	}
	n := 1
	for i := b.start(uint32(h)); b[i].name != "" && b[i].name != name; i = b.next(i) {
		n++
	}
	return n
}

// TestIndexFootprint: the index's memory follows its names. A bulk
// load builds every bucket at most 2/3 full, so a listed name costs
// about 1.5 slots of 32 bytes whatever the zone's size, and the probe
// lengths stay those of that load. Power-of-two buckets at most half
// full cost ~2.7 slots per name; buckets 7/8 full make a miss probe
// several times longer. The test counts bytes and slots rather than
// time, so it holds under -race and on loaded machines.
func TestIndexFootprint(t *testing.T) {
	// Measured at 16,384 and 131,072 names: 49.6 and 51.9 bytes per
	// name, mean probes of 1.91 and 1.87 slots listed and 4.40 and 4.25
	// never-seen. Each bound is the larger value plus 15%.
	const (
		maxBytesPerName = 59.7
		maxListedProbe  = 2.2
		maxMissProbe    = 5.06
	)
	var perName [2]float64
	for i, n := range []int{16_384, 131_072} {
		b, listed, miss := footprint(t, n)
		t.Logf("%d names: %.1f retained bytes per name, mean probe %.2f slots listed, %.2f never-seen", n, b, listed, miss)
		if b > maxBytesPerName {
			t.Errorf("%d names: the index retains %.1f bytes per name, want at most %.1f", n, b, maxBytesPerName)
		}
		if listed > maxListedProbe || miss > maxMissProbe {
			t.Errorf("%d names: mean probe %.2f slots listed and %.2f never-seen, want at most %.2f and %.2f",
				n, listed, miss, maxListedProbe, maxMissProbe)
		}
		perName[i] = b
	}
	if ratio := perName[1] / perName[0]; ratio > 1.25 || ratio < 1/1.25 {
		t.Errorf("bytes per name moved %.2f× from %d to %d names, want within 1.25×", ratio, 16_384, 131_072)
	}
}
