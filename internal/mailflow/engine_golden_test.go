package mailflow

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
)

// The engine determinism contract: a run's entire output — every
// feed's per-domain stats, the oracle, and the report counter — is
// byte-identical for every Config.Workers value and GOMAXPROCS
// setting, and across repeated runs with the same seed. Parallelism
// may only change wall-clock time.

var (
	goldenOnce  sync.Once
	goldenCache *ecosystem.World
)

// goldenWorld builds the shared reduced-scale world once; engine runs
// never mutate it.
func goldenWorld() *ecosystem.World {
	goldenOnce.Do(func() { goldenCache = testWorld(7000) })
	return goldenCache
}

// fingerprint hashes everything a Result contains that analyses can
// observe.
func fingerprint(res *Result) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "reports=%d\n", res.HumanReports)
	for _, name := range res.Order {
		f := res.Feed(name)
		fmt.Fprintf(h, "feed=%s samples=%d deduped=%d unique=%d\n",
			name, f.Samples(), f.Deduped(), f.Unique())
		f.Each(func(d domain.Name, s feeds.DomainStat) {
			fmt.Fprintf(h, "%s %d %d %d %s\n",
				d, s.Count, s.First.UnixNano(), s.Last.UnixNano(), s.SampleURL)
		})
	}
	fmt.Fprintf(h, "oracle total=%d unique=%d\n", res.Oracle.Total(), res.Oracle.Unique())
	// Hash oracle volumes for every domain any feed saw; together with
	// the totals above that pins the oracle's observable state.
	for _, name := range res.Order {
		f := res.Feed(name)
		f.Each(func(d domain.Name, _ feeds.DomainStat) {
			id, _ := f.Syms().Find(string(d))
			fmt.Fprintf(h, "o %s %d\n", d, res.Oracle.VolumeID(id))
		})
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func runFingerprint(t *testing.T, workers int) [sha256.Size]byte {
	t.Helper()
	cfg := testConfig(7001)
	cfg.Workers = workers
	res, err := New(goldenWorld(), cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(res)
}

func TestGoldenEngineDeterministicAcrossWorkers(t *testing.T) {
	want := runFingerprint(t, 1)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4, 8} {
			if got := runFingerprint(t, workers); got != want {
				t.Fatalf("result diverged at GOMAXPROCS=%d Workers=%d", procs, workers)
			}
		}
	}
}

func TestGoldenEngineRepeatable(t *testing.T) {
	if runFingerprint(t, 0) != runFingerprint(t, 0) {
		t.Fatal("two same-seed runs differ")
	}
}

// pinnedFingerprint is runFingerprint(t, 0) as produced by the
// string-keyed engine before the symbol-interning refactor. The
// interned hot path must reproduce it byte for byte: symbol IDs,
// packed timestamps and pooled buffers are representation changes
// only, never behavior changes.
const pinnedFingerprint = "6c248170e0b9d0be48ea281904074bdfee1f2e22ec456e376e28912fc202c437"

func TestGoldenEngineMatchesPinnedFingerprint(t *testing.T) {
	got := fmt.Sprintf("%x", runFingerprint(t, 0))
	if got != pinnedFingerprint {
		t.Fatalf("fingerprint diverged from pre-interning engine:\n got %s\nwant %s", got, pinnedFingerprint)
	}
}
