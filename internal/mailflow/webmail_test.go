package mailflow

import (
	"testing"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/oracle"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

func newTestWebmail(cfg Config) (*webmail, *feeds.Feed, *oracle.Oracle) {
	w := simclock.PaperWindow()
	hu := feeds.New("Hu", feeds.KindHuman, false, false)
	o := oracle.New(w) // oracle over the whole window for testing
	return newWebmail(&cfg, w, hu, o), hu, o
}

// volumeOf reads the oracle's count for d through the feed's symbol
// table, which newWebmail shares with the oracle's IDs.
func volumeOf(o *oracle.Oracle, hu *feeds.Feed, d domain.Name) int64 {
	id, ok := hu.Syms().Find(string(d))
	if !ok {
		return 0
	}
	return o.VolumeID(id)
}

// times returns n ascending UnixNano times, step apart from start.
func times(start time.Time, n int, step time.Duration) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start.Add(time.Duration(i) * step).UnixNano()
	}
	return out
}

// deliver interns d through the Hu feed's table, queues one batch of
// its messages and drains it, as the engine does per chunk; the chain
// draws from its own RNG stream. It returns d's symbol ID.
func deliver(wm *webmail, hu *feeds.Feed, d domain.Name, class ecosystem.CampaignClass,
	ts []int64, prefiltered bool) symtab.ID {
	id := hu.Syms().Intern(string(d))
	wm.enqueue(wmBatch{d: id, class: class, times: ts, prefiltered: prefiltered})
	wm.flush(2)
	return id
}

// reported reports whether d's chain has recorded a human report.
func reported(wm *webmail, d symtab.ID) bool {
	s := &wm.shards[wm.shardOfID(d)]
	ci, ok := s.chainIdx[d]
	return ok && s.chains[ci].reported
}

func TestWebmailOracleCountsEverything(t *testing.T) {
	cfg := DefaultConfig(1)
	wm, hu, o := newTestWebmail(cfg)
	d := domain.Name("pills.com")
	deliver(wm, hu, d, ecosystem.ClassLoud, times(simclock.PaperStart, 500, time.Minute), false)
	if got := volumeOf(o, hu, d); got != 500 {
		t.Fatalf("oracle volume %d, want 500 (pre-filter)", got)
	}
}

func TestWebmailFeedbackCapsReports(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionQuiet = 1.0 // everything reaches the inbox pre-report
	cfg.ReportProb = 1.0        // first inbox message is reported
	cfg.ReportDelayMedianHours = 0.001
	cfg.ReportDelaySigma = 0.01
	cfg.FilterAfterReport = 1.0 // feedback is airtight
	wm, hu, _ := newTestWebmail(cfg)
	d := domain.Name("pills.com")
	id := deliver(wm, hu, d, ecosystem.ClassQuiet, times(simclock.PaperStart, 1000, time.Minute), false)
	s, ok := hu.Stat(d)
	if !ok {
		t.Fatal("domain never reported")
	}
	// With instant reporting and airtight feedback, only messages
	// delivered before the first report time can be reported.
	if s.Count > 3 {
		t.Fatalf("reports = %d; feedback loop failed to cap volume", s.Count)
	}
	if !reported(wm, id) {
		t.Fatal("chain not marked reported after report")
	}
}

func TestWebmailNoFeedbackMeansManyReports(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionQuiet = 1.0
	cfg.ReportProb = 1.0
	cfg.FilterAfterReport = 0 // ablation: no feedback
	wm, hu, _ := newTestWebmail(cfg)
	d := domain.Name("pills.com")
	deliver(wm, hu, d, ecosystem.ClassQuiet, times(simclock.PaperStart, 1000, time.Minute), false)
	s, _ := hu.Stat(d)
	if s.Count < 900 {
		t.Fatalf("reports = %d; without feedback nearly every message reports", s.Count)
	}
}

func TestWebmailLoudFilteredHard(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionLoud = 0 // filters catch every loud message
	wm, hu, _ := newTestWebmail(cfg)
	d := domain.Name("pills.com")
	deliver(wm, hu, d, ecosystem.ClassLoud, times(simclock.PaperStart, 2000, time.Minute), false)
	if hu.Has(d) {
		t.Fatal("fully filtered campaign still reported")
	}
}

func TestWebmailReportsRespectWindowEnd(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionQuiet = 1.0
	cfg.ReportProb = 1.0
	cfg.ReportDelayMedianHours = 24 * 365 // reports land after the window
	cfg.ReportDelaySigma = 0.01
	wm, hu, _ := newTestWebmail(cfg)
	d := domain.Name("pills.com")
	deliver(wm, hu, d, ecosystem.ClassQuiet, times(simclock.PaperStart, 50, time.Hour), false)
	if hu.Has(d) {
		t.Fatal("report recorded past the measurement window")
	}
}

// TestWebmailRecordOnlyNeverReports checks a prefiltered batch, the
// blast the provider's signatures block outright: the oracle counts
// every message, and none reaches an inbox. The settings would report
// every message of an unfiltered batch.
func TestWebmailRecordOnlyNeverReports(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionLoud = 1.0
	cfg.ReportProb = 1.0
	wm, hu, o := newTestWebmail(cfg)
	d := domain.Name("megaspam.com")
	id := deliver(wm, hu, d, ecosystem.ClassLoud, times(simclock.PaperStart, 100, time.Minute), true)
	if hu.Has(d) || reported(wm, id) {
		t.Fatal("prefiltered batch leaked into Hu")
	}
	if got := volumeOf(o, hu, d); got != 100 {
		t.Fatalf("oracle volume %d", got)
	}
}

func TestWebmailChaffReports(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InboxEvasionQuiet = 1.0
	cfg.ReportProb = 1.0
	cfg.ReportDelayMedianHours = 0.001
	cfg.ReportDelaySigma = 0.01
	cfg.FilterAfterReport = 0
	cfg.HuChaffProb = 1.0
	wm, hu, _ := newTestWebmail(cfg)
	chaffDomain := domain.Name("w3-style.org")
	chaffID := hu.Syms().Intern(string(chaffDomain))
	wm.chaffWith = func(*randutil.RNG) (symtab.ID, bool) { return chaffID, true }
	deliver(wm, hu, "pills.com", ecosystem.ClassQuiet, times(simclock.PaperStart, 20, time.Hour), false)
	if !hu.Has(chaffDomain) {
		t.Fatal("chaff domain never co-reported")
	}
}

func TestStealthSplit(t *testing.T) {
	world := testWorld(31)
	eng := New(world, testConfig(32))
	eng.res = nil // stealthSplit does not touch results
	rng := randutil.New(8)
	w := simclock.PaperWindow()
	slot := &ecosystem.AdDomain{
		Name:  "x.com",
		Start: w.Day(10),
		End:   w.Day(20),
	}
	clipped := simclock.Window{Start: slot.Start, End: slot.End}
	for i := 0; i < 200; i++ {
		lead, blast := eng.stealthSplit(rng, slot, clipped)
		if lead.Start != clipped.Start {
			t.Fatalf("lead starts at %v", lead.Start)
		}
		if !lead.End.Equal(blast.Start) {
			t.Fatal("lead and blast must abut")
		}
		if blast.End != clipped.End {
			t.Fatalf("blast ends at %v", blast.End)
		}
		leadDur := lead.End.Sub(lead.Start)
		if leadDur < 0 || leadDur > slot.End.Sub(slot.Start)/2 {
			t.Fatalf("lead duration %v out of bounds", leadDur)
		}
	}
}

func TestStealthSplitSlotBeforeWindow(t *testing.T) {
	world := testWorld(33)
	eng := New(world, testConfig(34))
	rng := randutil.New(9)
	w := simclock.PaperWindow()
	// Slot began 10 days before the window: the lead is over.
	slot := &ecosystem.AdDomain{
		Name:  "x.com",
		Start: w.Start.AddDate(0, 0, -10),
		End:   w.Day(5),
	}
	clipped := simclock.Window{Start: w.Start, End: slot.End}
	lead, blast := eng.stealthSplit(rng, slot, clipped)
	if lead.End.After(lead.Start) {
		t.Fatalf("expected empty lead, got %v..%v", lead.Start, lead.End)
	}
	if !blast.Start.Equal(w.Start) || !blast.End.Equal(slot.End) {
		t.Fatalf("blast %v..%v", blast.Start, blast.End)
	}
}

// newTestPoisonSource builds a source over a private symbol table,
// with obscure interned into it.
func newTestPoisonSource(rng *randutil.RNG, fresh, liveHit float64, obscure []domain.Name) (*PoisonSource, *symtab.Table) {
	tab := symtab.New()
	ids := make([]symtab.ID, len(obscure))
	for i, d := range obscure {
		ids[i] = tab.Intern(string(d))
	}
	return newPoisonSourceSyms(rng, fresh, liveHit, tab, ids), tab
}

func TestPoisonSourceUniqueness(t *testing.T) {
	rng := randutil.New(10)
	// High fresh probability: most names unique.
	src, _ := newTestPoisonSource(rng.SplitNamed("a"), 0.9, 0, nil)
	seen := map[symtab.ID]bool{}
	const n = 5000
	for i := 0; i < n; i++ {
		seen[src.NextID()] = true
	}
	if len(seen) < n*7/10 {
		t.Fatalf("high-fresh source: %d unique of %d", len(seen), n)
	}
	// Low fresh probability: heavy re-use.
	src, _ = newTestPoisonSource(rng.SplitNamed("b"), 0.05, 0, nil)
	seen = map[symtab.ID]bool{}
	for i := 0; i < n; i++ {
		seen[src.NextID()] = true
	}
	if len(seen) > n/5 {
		t.Fatalf("low-fresh source: %d unique of %d", len(seen), n)
	}
}

func TestPoisonSourceLiveHits(t *testing.T) {
	rng := randutil.New(11)
	obscure := []domain.Name{"real1.com", "real2.com", "real3.com"}
	src, tab := newTestPoisonSource(rng, 1.0, 0.5, obscure)
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		d := domain.Name(tab.Lookup(src.NextID()))
		for _, o := range obscure {
			if d == o {
				hits++
				break
			}
		}
	}
	if hits < n/3 || hits > 2*n/3 {
		t.Fatalf("live hits %d of %d, want ~half", hits, n)
	}
}

func TestPoisonSourceTLDsZoneCovered(t *testing.T) {
	rng := randutil.New(12)
	src, tab := newTestPoisonSource(rng, 1.0, 0, nil)
	for i := 0; i < 200; i++ {
		d := domain.Name(tab.Lookup(src.NextID()))
		switch d.TLD() {
		case "com", "net", "info":
		default:
			t.Fatalf("poison TLD %q not zone-covered", d.TLD())
		}
	}
}
