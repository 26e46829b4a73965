package feeds

import (
	"runtime"
	"testing"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

var (
	t0 = simclock.PaperStart
	t1 = t0.Add(24 * time.Hour)
	t2 = t0.Add(48 * time.Hour)
)

func TestObserveAggregates(t *testing.T) {
	f := New("mx1", KindMXHoneypot, true, true)
	d := domain.Name("pills.com")
	f.Observe(t1, d, "http://pills.com/a")
	f.Observe(t0, d, "http://pills.com/b")
	f.Observe(t2, d, "http://pills.com/c")
	if f.Samples() != 3 || f.Unique() != 1 {
		t.Fatalf("samples=%d unique=%d", f.Samples(), f.Unique())
	}
	s, ok := f.Stat(d)
	if !ok {
		t.Fatal("missing stat")
	}
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if !s.First.Equal(t0) || !s.Last.Equal(t2) {
		t.Fatalf("first=%v last=%v", s.First, s.Last)
	}
	if s.SampleURL != "http://pills.com/a" {
		t.Fatalf("sample url = %q (want first observed kept)", s.SampleURL)
	}
}

func TestObserveDomainOnlyFeedDropsURL(t *testing.T) {
	f := New("hu", KindHuman, false, false)
	f.Observe(t0, "pills.com", "http://pills.com/x")
	s, _ := f.Stat("pills.com")
	if s.SampleURL != "" {
		t.Fatalf("domain-only feed kept URL %q", s.SampleURL)
	}
}

func TestObserveOnceBinary(t *testing.T) {
	f := New("dbl", KindBlacklist, false, false)
	d := domain.Name("pills.com")
	f.ObserveOnce(t1, d)
	f.ObserveOnce(t2, d)
	s, _ := f.Stat(d)
	if s.Count != 1 {
		t.Fatalf("blacklist count = %d, want 1", s.Count)
	}
	if !s.First.Equal(t1) || !s.Last.Equal(t1) {
		t.Fatalf("first=%v last=%v, want both %v", s.First, s.Last, t1)
	}
	// An earlier report moves the listing time back.
	f.ObserveOnce(t0, d)
	s, _ = f.Stat(d)
	if !s.First.Equal(t0) {
		t.Fatalf("first = %v after earlier report", s.First)
	}
	if f.Samples() != 1 {
		t.Fatalf("samples = %d", f.Samples())
	}
}

func TestDomainsSorted(t *testing.T) {
	f := New("x", KindHybrid, false, false)
	f.Observe(t0, "zzz.com", "")
	f.Observe(t0, "aaa.com", "")
	f.Observe(t0, "mmm.com", "")
	ds := f.Domains()
	if len(ds) != 3 || ds[0] != "aaa.com" || ds[1] != "mmm.com" || ds[2] != "zzz.com" {
		t.Fatalf("Domains = %v", ds)
	}
}

func TestDomainSetAndCounts(t *testing.T) {
	f := New("x", KindBotnet, true, true)
	f.Observe(t0, "a.com", "")
	f.Observe(t0, "a.com", "")
	f.Observe(t0, "b.com", "")
	set := f.DomainSet()
	if !set["a.com"] || !set["b.com"] || len(set) != 2 {
		t.Fatalf("DomainSet = %v", set)
	}
	counts := f.Counts()
	if counts["a.com"] != 2 || counts["b.com"] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
}

func TestRetain(t *testing.T) {
	f := New("dbl", KindBlacklist, false, false)
	f.ObserveOnce(t0, "keep.com")
	f.ObserveOnce(t0, "drop.com")
	keep, _ := f.Syms().Find("keep.com")
	removed := f.RetainID(func(d symtab.ID) bool { return d == keep })
	if removed != 1 || f.Unique() != 1 || !f.Has("keep.com") || f.Has("drop.com") {
		t.Fatalf("Retain: removed=%d unique=%d", removed, f.Unique())
	}
	if f.Samples() != 1 {
		t.Fatalf("samples = %d", f.Samples())
	}
}

func TestEachOrdered(t *testing.T) {
	f := New("x", KindHuman, false, false)
	f.Observe(t0, "b.com", "")
	f.Observe(t0, "a.com", "")
	var got []string
	f.Each(func(d domain.Name, s DomainStat) { got = append(got, string(d)) })
	if len(got) != 2 || got[0] != "a.com" || got[1] != "b.com" {
		t.Fatalf("Each order = %v", got)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindHuman:        "Human identified",
		KindBlacklist:    "Blacklist",
		KindMXHoneypot:   "MX honeypot",
		KindHoneyAccount: "Seeded honey accounts",
		KindBotnet:       "Botnet",
		KindHybrid:       "Hybrid",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestDedupWindow(t *testing.T) {
	f := New("ac2", KindHoneyAccount, true, false)
	f.DedupWindow = time.Hour
	d := domain.Name("pills.com")
	f.Observe(t0, d, "")
	f.Observe(t0.Add(10*time.Minute), d, "") // suppressed
	f.Observe(t0.Add(59*time.Minute), d, "") // suppressed, extends Last
	f.Observe(t0.Add(2*time.Hour), d, "")    // past the window: recorded
	s, _ := f.Stat(d)
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if f.Samples() != 2 || f.Deduped() != 2 {
		t.Fatalf("samples=%d deduped=%d", f.Samples(), f.Deduped())
	}
	if !s.Last.Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("Last = %v", s.Last)
	}
}

func TestDedupWindowSlidesWithSuppressed(t *testing.T) {
	// Suppressed observations extend Last, so a continuous drizzle
	// below the window rate yields exactly one record.
	f := New("x", KindHybrid, false, false)
	f.DedupWindow = time.Hour
	d := domain.Name("pills.com")
	for i := 0; i < 48; i++ {
		f.Observe(t0.Add(time.Duration(i)*30*time.Minute), d, "")
	}
	s, _ := f.Stat(d)
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1 (continuous drizzle)", s.Count)
	}
}

func TestDedupWindowIgnoresOutOfOrder(t *testing.T) {
	f := New("x", KindHybrid, false, false)
	f.DedupWindow = time.Hour
	d := domain.Name("pills.com")
	f.Observe(t1, d, "")
	f.Observe(t0, d, "") // earlier than Last: recorded, moves First
	s, _ := f.Stat(d)
	if s.Count != 2 || !s.First.Equal(t0) {
		t.Fatalf("stat = %+v", s)
	}
}

func TestUnion(t *testing.T) {
	a := New("a", KindMXHoneypot, true, true)
	a.Observe(t1, "pills.com", "http://pills.com/p/c1")
	a.Observe(t2, "pills.com", "http://pills.com/p/c1")
	a.Observe(t0, "only-a.com", "http://only-a.com/")
	b := New("b", KindHoneyAccount, true, true)
	b.Observe(t0, "pills.com", "http://pills.com/p/c9")
	b.Observe(t1, "only-b.com", "http://only-b.com/")

	u := Union("all", a, b)
	if u.Unique() != 3 || u.Samples() != 5 {
		t.Fatalf("unique=%d samples=%d", u.Unique(), u.Samples())
	}
	s, _ := u.Stat("pills.com")
	if s.Count != 3 || !s.First.Equal(t0) || !s.Last.Equal(t2) {
		t.Fatalf("pills.com: %+v", s)
	}
	if !u.HasVolume || !u.URLs {
		t.Fatalf("flags: vol=%v urls=%v", u.HasVolume, u.URLs)
	}
	// Inputs untouched.
	if a.Unique() != 2 || b.Unique() != 2 {
		t.Fatal("inputs mutated")
	}
}

func TestUnionVolumeSemantics(t *testing.T) {
	a := New("a", KindMXHoneypot, true, true)
	a.Observe(t0, "x.com", "http://x.com/")
	h := New("hu", KindHuman, false, false)
	h.Observe(t0, "x.com", "")
	u := Union("all", a, h)
	if u.HasVolume {
		t.Fatal("union with a volume-less input must not claim volume")
	}
	if !u.URLs {
		t.Fatal("union should report URLs if any input does")
	}
}

func TestUnionEmpty(t *testing.T) {
	u := Union("empty")
	if u.Unique() != 0 || u.HasVolume {
		t.Fatalf("empty union: %+v", u)
	}
}

func TestTapReceivesObservations(t *testing.T) {
	f := New("mx1", KindMXHoneypot, true, true)
	var got []RawRecord
	f.Tap = func(r RawRecord) { got = append(got, r) }
	f.Observe(t0, "a.com", "http://a.com/x")
	f.Observe(t1, "a.com", "http://a.com/y")
	if len(got) != 2 || got[0].Domain != "a.com" || got[0].URL != "http://a.com/x" {
		t.Fatalf("tapped: %+v", got)
	}
	// Domain-only feeds tap without URLs.
	h := New("hu", KindHuman, false, false)
	var hr []RawRecord
	h.Tap = func(r RawRecord) { hr = append(hr, r) }
	h.Observe(t0, "b.com", "http://should-be-dropped/")
	if len(hr) != 1 || hr[0].URL != "" {
		t.Fatalf("domain-only tap: %+v", hr)
	}
}

func TestTapSkipsDeduped(t *testing.T) {
	f := New("x", KindHybrid, false, false)
	f.DedupWindow = time.Hour
	n := 0
	f.Tap = func(RawRecord) { n++ }
	f.Observe(t0, "a.com", "")
	f.Observe(t0.Add(time.Minute), "a.com", "") // deduped
	f.Observe(t0.Add(2*time.Hour), "a.com", "")
	if n != 2 {
		t.Fatalf("tapped %d, want 2", n)
	}
}

func TestTapOnObserveOnce(t *testing.T) {
	f := New("dbl", KindBlacklist, false, false)
	n := 0
	f.Tap = func(RawRecord) { n++ }
	f.ObserveOnce(t0, "a.com")
	f.ObserveOnce(t1, "a.com") // already listed: no new record
	if n != 1 {
		t.Fatalf("tapped %d, want 1", n)
	}
}

// TestObserveIDScalesLinearly observes n fresh, increasing IDs, as a
// feed sees the engine's freshly minted poison names, and checks that
// the heap bytes per new row stay flat as n grows eightfold. The row
// array and the ID index both grow per new domain; either one copied
// on every new highest ID would make the bytes per row grow about
// eightfold too.
func TestObserveIDScalesLinearly(t *testing.T) {
	at := t0.UnixNano()
	perRow := func(n int) float64 {
		f := New("mx1", KindMXHoneypot, true, true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for id := 1; id <= n; id++ {
			f.ObserveID(at, symtab.ID(id), 0)
		}
		runtime.ReadMemStats(&after)
		if f.Unique() != n {
			t.Fatalf("Unique = %d after %d fresh IDs", f.Unique(), n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const n = 16_384
	small, large := perRow(n), perRow(8*n)
	t.Logf("heap bytes per new row: %.1f at %d rows, %.1f at %d", small, n, large, 8*n)
	if large > 2*small {
		t.Fatalf("ObserveID allocates %.0f B per new row at %d rows but %.0f B at %d",
			small, n, large, 8*n)
	}
}

// TestGrowSizesColumns checks that Grow sizes both columns at once:
// after Grow(r, n), recording r new domains with IDs below n, highest
// first, allocates nothing. Without Grow the same records regrow the
// rows and the ID index.
func TestGrowSizesColumns(t *testing.T) {
	const rows, ids = 1000, 5000
	at := t0.UnixNano()
	record := func(f *Feed) float64 {
		// AllocsPerRun calls the function twice, each time recording
		// half of the new domains: IDs ids-1, ids-1-ids/rows, ... 4.
		k := 0
		return testing.AllocsPerRun(1, func() {
			for end := k + rows/2; k < end; k++ {
				d := symtab.ID(ids - 1 - k*(ids/rows))
				if k%2 == 0 {
					f.ObserveID(at, d, 0)
				} else {
					f.ObserveOnceID(at, d)
				}
			}
		})
	}
	f := New("mx1", KindMXHoneypot, true, true)
	f.Grow(rows, ids)
	if allocs := record(f); allocs != 0 {
		t.Fatalf("recording %d domains after Grow(%d, %d) made %.0f allocations", rows, rows, ids, allocs)
	}
	if f.Unique() != rows {
		t.Fatalf("Unique = %d, want %d", f.Unique(), rows)
	}
	if allocs := record(New("mx1", KindMXHoneypot, true, true)); allocs == 0 {
		t.Fatal("recording into an ungrown feed allocated nothing; the test measures nothing")
	}
}
