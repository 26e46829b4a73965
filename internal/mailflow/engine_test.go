package mailflow

import (
	"errors"
	"runtime"
	"testing"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

// testWorld is a reduced-scale world shared by mailflow tests.
func testWorld(seed uint64) *ecosystem.World {
	cfg := ecosystem.DefaultConfig(seed)
	cfg.Scale = 0.15
	cfg.RXAffiliates = 150
	cfg.RXLoudAffiliates = 10
	cfg.BenignDomains = 3000
	cfg.AlexaTopN = 1200
	cfg.ODPDomains = 600
	cfg.ObscureRegistered = 400
	cfg.WebOnlyDomains = 800
	cfg.OtherGoodsCampaigns = 800
	return ecosystem.MustGenerate(cfg)
}

// testConfig shrinks the poison streams to test scale.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.PoisonBotArrivals = 15000
	cfg.PoisonMX2Arrivals = 14000
	cfg.HuJunkReports = 250
	cfg.HoneypotJunkPerDay = 0.25
	cfg.DBL.JunkBenign = 8
	cfg.URIBL.JunkBenign = 4
	return cfg
}

func runSmall(t *testing.T, seed uint64) *Result {
	t.Helper()
	eng := New(testWorld(seed), testConfig(seed+1000))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesAllFeeds(t *testing.T) {
	res := runSmall(t, 1)
	if len(res.Order) != 10 {
		t.Fatalf("Order = %v", res.Order)
	}
	for _, name := range res.Order {
		f := res.Feed(name)
		if f.Samples() == 0 || f.Unique() == 0 {
			t.Errorf("feed %s is empty", name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	r1 := runSmall(t, 2)
	r2 := runSmall(t, 2)
	for _, name := range r1.Order {
		f1, f2 := r1.Feed(name), r2.Feed(name)
		if f1.Samples() != f2.Samples() || f1.Unique() != f2.Unique() {
			t.Fatalf("feed %s differs: %d/%d vs %d/%d",
				name, f1.Samples(), f1.Unique(), f2.Samples(), f2.Unique())
		}
		d1 := f1.Domains()
		d2 := f2.Domains()
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("feed %s domain %d differs", name, i)
			}
			s1, _ := f1.Stat(d1[i])
			s2, _ := f2.Stat(d2[i])
			if s1.Count != s2.Count || !s1.First.Equal(s2.First) || !s1.Last.Equal(s2.Last) {
				t.Fatalf("feed %s stat for %s differs", name, d1[i])
			}
		}
	}
	if r1.Oracle.Total() != r2.Oracle.Total() {
		t.Fatal("oracle totals differ")
	}
}

func TestFeedSemantics(t *testing.T) {
	res := runSmall(t, 3)
	// Blacklists are binary: every domain count is exactly 1.
	for _, bl := range []string{"dbl", "uribl"} {
		res.Feed(bl).Each(func(d domain.Name, s feeds.DomainStat) {
			if s.Count != 1 {
				t.Fatalf("%s domain %s count %d", bl, d, s.Count)
			}
			if !s.First.Equal(s.Last) {
				t.Fatalf("%s domain %s has a duration", bl, d)
			}
		})
	}
	// Volume flags match the paper's availability.
	wantVolume := map[string]bool{
		"Hu": false, "dbl": false, "uribl": false, "Hyb": false,
		"mx1": true, "mx2": true, "mx3": true, "Ac1": true, "Ac2": true, "Bot": true,
	}
	for name, want := range wantVolume {
		if got := res.Feed(name).HasVolume; got != want {
			t.Errorf("feed %s HasVolume = %v, want %v", name, got, want)
		}
	}
}

func TestObservationsInsideWindow(t *testing.T) {
	res := runSmall(t, 4)
	w := simclock.PaperWindow()
	for _, name := range res.Order {
		res.Feed(name).Each(func(d domain.Name, s feeds.DomainStat) {
			if s.First.Before(w.Start) || !s.Last.Before(w.End) {
				t.Fatalf("feed %s domain %s observed outside window: %v..%v",
					name, d, s.First, s.Last)
			}
		})
	}
}

func TestBlacklistsRestrictedToBaseFeeds(t *testing.T) {
	res := runSmall(t, 5)
	base := res.BaseOrder()
	if len(base) != 8 {
		t.Fatalf("base feeds = %v", base)
	}
	for _, bl := range []string{"dbl", "uribl"} {
		res.Feed(bl).Each(func(d domain.Name, s feeds.DomainStat) {
			found := false
			for _, name := range base {
				if res.Feed(name).Has(d) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s lists %s which no base feed contains", bl, d)
			}
		})
	}
}

func TestPoisonShape(t *testing.T) {
	res := runSmall(t, 6)
	// Bot and mx2 must be junk-dominated: their unique counts should
	// dwarf their real-domain content and everyone except Hu/Hyb.
	bot := res.Feed("Bot").Unique()
	mx2 := res.Feed("mx2").Unique()
	mx1 := res.Feed("mx1").Unique()
	mx3 := res.Feed("mx3").Unique()
	if bot <= 3*mx1 {
		t.Errorf("Bot uniques %d not dominated by poison (mx1 %d)", bot, mx1)
	}
	if mx2 <= 2*mx1 || mx2 <= 2*mx3 {
		t.Errorf("mx2 uniques %d should exceed mx1 %d and mx3 %d", mx2, mx1, mx3)
	}
	if bot <= mx2 {
		t.Errorf("Bot uniques %d should exceed mx2 %d", bot, mx2)
	}
}

func TestHuSmallestVolumeAmongBaseFeeds(t *testing.T) {
	res := runSmall(t, 7)
	hu := res.Feed("Hu").Samples()
	// Ac2 sits within noise of Hu at test scale; the clearly separated
	// feeds are asserted.
	for _, name := range []string{"mx1", "mx2", "Ac1", "Bot", "Hyb"} {
		if other := res.Feed(name).Samples(); hu >= other {
			t.Errorf("Hu samples %d >= %s samples %d", hu, name, other)
		}
	}
}

func TestHumanReportsRecorded(t *testing.T) {
	res := runSmall(t, 8)
	if res.HumanReports == 0 {
		t.Fatal("no human reports")
	}
	if int64(res.Feed("Hu").Samples()) < res.HumanReports/2 {
		t.Fatalf("Hu samples %d vs reports %d", res.Feed("Hu").Samples(), res.HumanReports)
	}
}

func TestOraclePopulated(t *testing.T) {
	res := runSmall(t, 9)
	if res.Oracle.Total() == 0 || res.Oracle.Unique() == 0 {
		t.Fatal("oracle empty")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig(1)
	cfg.ReportProb = 1.5
	if _, err := New(testWorld(1), cfg).Run(); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunReturnsUnknownFeedError removes a feed through the hooks — a
// configuration-reachable path — and verifies the run fails with the
// typed error instead of crashing the process. The feed goes either
// before the run binds its feeds, or midway: a Tap on mx1 deletes mx3,
// which typoTraffic then looks up by name. Either way no goroutine of
// the run may outlive it: the world's table must not grow after Run
// returns. The mid-run case mints ten times the test poison, so the
// mint goroutine is still interning when the run fails.
func TestRunReturnsUnknownFeedError(t *testing.T) {
	cases := []struct {
		name, missing string
		onFeeds       func(map[string]*feeds.Feed)
		poisonScale   int
	}{
		{"before-binding", "mx2", func(fs map[string]*feeds.Feed) { delete(fs, "mx2") }, 1},
		{"mid-run", "mx3", func(fs map[string]*feeds.Feed) {
			fs["mx1"].Tap = func(feeds.RawRecord) { delete(fs, "mx3") }
		}, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := testWorld(3)
			cfg := testConfig(1003)
			cfg.PoisonBotArrivals *= c.poisonScale
			eng := New(w, cfg)
			eng.OnFeeds = c.onFeeds
			res, err := eng.Run()
			n := w.Syms.Len()
			for i := 0; i < 1000; i++ {
				runtime.Gosched()
				if got := w.Syms.Len(); got != n {
					t.Fatalf("symbol table grew from %d to %d after Run returned", n, got)
				}
			}
			if res != nil {
				t.Fatal("Run returned a result alongside a missing feed")
			}
			var ufe *UnknownFeedError
			if !errors.As(err, &ufe) {
				t.Fatalf("err = %v (%T), want *UnknownFeedError", err, err)
			}
			if ufe.Name != c.missing {
				t.Fatalf("UnknownFeedError.Name = %q, want %s", ufe.Name, c.missing)
			}
		})
	}
}

// TestLookupUnknownFeed pins the non-panicking accessor.
func TestLookupUnknownFeed(t *testing.T) {
	res := runSmall(t, 4)
	if _, err := res.Lookup("Hu"); err != nil {
		t.Fatalf("Lookup(Hu): %v", err)
	}
	if _, err := res.Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown feed succeeded")
	}
}
