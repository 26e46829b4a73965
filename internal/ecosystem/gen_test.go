package ecosystem

import (
	"testing"

	"tasterschoice/internal/simclock"
)

// testConfig returns a small, fast config for tests.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.1
	cfg.RXAffiliates = 120
	cfg.RXLoudAffiliates = 8
	cfg.BenignDomains = 2000
	cfg.AlexaTopN = 800
	cfg.ODPDomains = 400
	cfg.ObscureRegistered = 300
	cfg.WebOnlyDomains = 500
	cfg.OtherGoodsCampaigns = 500
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := MustGenerate(testConfig(7))
	w2 := MustGenerate(testConfig(7))
	if len(w1.Campaigns) != len(w2.Campaigns) {
		t.Fatalf("campaign counts differ: %d vs %d", len(w1.Campaigns), len(w2.Campaigns))
	}
	for i := range w1.Campaigns {
		c1, c2 := &w1.Campaigns[i], &w2.Campaigns[i]
		if c1.Affiliate != c2.Affiliate || c1.Volume != c2.Volume ||
			!c1.Start.Equal(c2.Start) || len(c1.Domains) != len(c2.Domains) {
			t.Fatalf("campaign %d differs", i)
		}
		for j := range c1.Domains {
			if c1.Domains[j].Name != c2.Domains[j].Name {
				t.Fatalf("campaign %d domain %d differs: %s vs %s",
					i, j, c1.Domains[j].Name, c2.Domains[j].Name)
			}
		}
	}
	if len(w1.Benign) != len(w2.Benign) || w1.Benign[0].Name != w2.Benign[0].Name {
		t.Fatal("benign universes differ")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	w1 := MustGenerate(testConfig(1))
	w2 := MustGenerate(testConfig(2))
	if len(w1.Campaigns) > 0 && len(w2.Campaigns) > 0 {
		if w1.Campaigns[0].Domains[0].Name == w2.Campaigns[0].Domains[0].Name {
			t.Fatal("different seeds produced the same first domain")
		}
	}
}

func TestProgramStructure(t *testing.T) {
	w := MustGenerate(testConfig(3))
	cfg := w.Config
	want := cfg.PharmaPrograms + cfg.ReplicaPrograms + cfg.SoftwarePrograms
	if len(w.Programs) != want {
		t.Fatalf("programs = %d, want %d", len(w.Programs), want)
	}
	rx := w.RXProgram()
	if rx == nil {
		t.Fatal("no RX program")
	}
	if rx.Category != CategoryPharma {
		t.Fatalf("RX category = %v", rx.Category)
	}
	nRX := 0
	for _, p := range w.Programs {
		if p.RX {
			nRX++
		}
	}
	if nRX != 1 {
		t.Fatalf("RX programs = %d, want 1", nRX)
	}
}

func TestAffiliateTiersAndKeys(t *testing.T) {
	w := MustGenerate(testConfig(4))
	rx := w.RXProgram()
	var rxCount, rxLoud int
	keys := map[string]bool{}
	for _, a := range w.Affiliates {
		if a.AnnualRevenue < w.Config.RevenueMin {
			t.Fatalf("affiliate %d revenue %g below floor", a.ID, a.AnnualRevenue)
		}
		if a.Program == rx.ID {
			rxCount++
			if a.Key == "" {
				t.Fatalf("RX affiliate %d missing key", a.ID)
			}
			if keys[a.Key] {
				t.Fatalf("duplicate RX key %q", a.Key)
			}
			keys[a.Key] = true
			if a.Tier == TierLoud {
				rxLoud++
			}
		} else if a.Key != "" {
			t.Fatalf("non-RX affiliate %d has key %q", a.ID, a.Key)
		}
	}
	if rxCount != w.Config.RXAffiliates {
		t.Fatalf("RX affiliates = %d, want %d", rxCount, w.Config.RXAffiliates)
	}
	if rxLoud != w.Config.RXLoudAffiliates {
		t.Fatalf("RX loud = %d, want %d", rxLoud, w.Config.RXLoudAffiliates)
	}
}

func TestQuietAffiliatesHoldTopRevenue(t *testing.T) {
	w := MustGenerate(testConfig(5))
	rx := w.RXProgram()
	var best *Affiliate
	for i := range w.Affiliates {
		a := &w.Affiliates[i]
		if a.Program != rx.ID {
			continue
		}
		if best == nil || a.AnnualRevenue > best.AnnualRevenue {
			best = a
		}
	}
	if best.Tier != TierQuiet {
		t.Fatalf("top-revenue RX affiliate tier = %v, want quiet", best.Tier)
	}
}

func TestBotnets(t *testing.T) {
	w := MustGenerate(testConfig(6))
	if len(w.Botnets) != w.Config.Botnets {
		t.Fatalf("botnets = %d", len(w.Botnets))
	}
	monitored := 0
	for _, b := range w.Botnets {
		if b.Monitored {
			monitored++
		}
		if len(b.Affiliates) == 0 {
			t.Fatalf("botnet %d has empty roster", b.ID)
		}
		for _, aff := range b.Affiliates {
			if w.Affiliates[aff].Tier != TierLoud {
				t.Fatalf("botnet %d roster affiliate %d is %v, want loud",
					b.ID, aff, w.Affiliates[aff].Tier)
			}
		}
	}
	if monitored != w.Config.MonitoredBotnets {
		t.Fatalf("monitored = %d", monitored)
	}
	p := w.Poisoner()
	if p == nil || !p.Monitored {
		t.Fatal("poisoner must exist and be monitored")
	}
}

func TestBenignUniverse(t *testing.T) {
	w := MustGenerate(testConfig(8))
	cfg := w.Config
	if len(w.Benign) != cfg.BenignDomains {
		t.Fatalf("benign = %d", len(w.Benign))
	}
	alexa, odp, redir := 0, 0, 0
	for i, b := range w.Benign {
		if b.Rank != i {
			t.Fatalf("rank %d at index %d", b.Rank, i)
		}
		if b.Alexa {
			alexa++
		}
		if b.ODP {
			odp++
		}
		if b.Redirector {
			redir++
		}
		info, ok := w.Info(b.Name)
		if !ok || info.Kind != KindBenign || !info.Registered || !info.Alive {
			t.Fatalf("benign %s index broken: %+v ok=%v", b.Name, info, ok)
		}
	}
	if alexa != cfg.AlexaTopN || odp != cfg.ODPDomains || redir != cfg.Redirectors {
		t.Fatalf("alexa=%d odp=%d redir=%d", alexa, odp, redir)
	}
	if len(w.Redirectors()) != cfg.Redirectors {
		t.Fatalf("Redirectors() = %d", len(w.Redirectors()))
	}
}

func TestCampaignInvariants(t *testing.T) {
	w := MustGenerate(testConfig(9))
	if len(w.Campaigns) == 0 {
		t.Fatal("no campaigns generated")
	}
	classCount := map[CampaignClass]int{}
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		if c.ID != i {
			t.Fatalf("campaign %d has ID %d", i, c.ID)
		}
		if !c.End.After(c.Start) {
			t.Fatalf("campaign %d empty window", i)
		}
		if len(c.Domains) == 0 {
			t.Fatalf("campaign %d has no domains", i)
		}
		classCount[c.Class]++
		switch c.Class {
		case ClassLoud:
			if c.Botnet < 0 || c.Botnet >= len(w.Botnets) {
				t.Fatalf("loud campaign %d botnet %d", i, c.Botnet)
			}
		case ClassWebOnly:
			if c.Volume != 0 {
				t.Fatalf("web-only campaign %d has volume %g", i, c.Volume)
			}
		default:
			if c.Botnet != -1 {
				t.Fatalf("%v campaign %d has botnet %d", c.Class, i, c.Botnet)
			}
		}
		for _, d := range c.Domains {
			if !d.End.After(d.Start) {
				t.Fatalf("campaign %d domain %s empty ad window", i, d.Name)
			}
			if d.Start.Before(c.Start.Add(-1)) || d.End.After(c.End.Add(1)) {
				t.Fatalf("campaign %d domain %s outside campaign window", i, d.Name)
			}
		}
	}
	for _, cls := range []CampaignClass{ClassLoud, ClassQuiet, ClassTiny, ClassWebOnly} {
		if classCount[cls] == 0 {
			t.Errorf("no %v campaigns", cls)
		}
	}
}

func TestIndexConsistency(t *testing.T) {
	w := MustGenerate(testConfig(10))
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		for _, d := range c.Domains {
			info, ok := w.Info(d.Name)
			if !ok {
				t.Fatalf("campaign %d domain %s not indexed", i, d.Name)
			}
			if byID, _ := w.InfoID(d.Sym); byID != info {
				t.Fatalf("domain %s: InfoID and Info disagree", d.Name)
			}
			if _, ok := w.InfoID(d.URLSym); ok {
				t.Fatalf("URL of %s indexed as a domain", d.Name)
			}
			if d.Redirector {
				if info.Kind != KindBenign {
					t.Fatalf("redirector slot %s indexed as %v", d.Name, info.Kind)
				}
				continue
			}
			if info.Campaign != c.ID {
				t.Fatalf("domain %s maps to campaign %d, want %d", d.Name, info.Campaign, c.ID)
			}
			if info.Program != c.Program || info.Affiliate != c.Affiliate {
				t.Fatalf("domain %s program/affiliate mismatch", d.Name)
			}
			if c.Class != ClassWebOnly && !info.Registered {
				t.Fatalf("mail-spam domain %s not registered", d.Name)
			}
		}
	}
	// A name interned after Generate (poison, junk) is unknown.
	if _, ok := w.InfoID(w.Syms.Intern("never-generated.example")); ok {
		t.Fatal("a name interned after Generate has ground truth")
	}
}

func TestSpamDomainsRegisteredBeforeAdStart(t *testing.T) {
	w := MustGenerate(testConfig(11))
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		if c.Class == ClassWebOnly {
			continue
		}
		for _, d := range c.Domains {
			if d.Redirector {
				continue
			}
			if !w.Registry.ActiveAt(d.Sym, d.Start) {
				t.Fatalf("domain %s not registered at ad start", d.Name)
			}
		}
	}
}

func TestTaggedUniverseNonEmpty(t *testing.T) {
	w := MustGenerate(testConfig(12))
	if n := w.TaggedUniverse(); n < 50 {
		t.Fatalf("tagged universe %d, expected at least 50 at test scale", n)
	}
}

func TestPoisonWindowInsideMeasurement(t *testing.T) {
	w := MustGenerate(testConfig(13))
	pw := w.PoisonWindow()
	mw := w.Config.Window
	if pw.Start.Before(mw.Start) || pw.End.After(mw.End) {
		t.Fatalf("poison window %v outside measurement %v", pw, mw)
	}
	if !pw.End.After(pw.Start) {
		t.Fatal("empty poison window")
	}
}

func TestAdURLRoundTrip(t *testing.T) {
	c := &Campaign{ID: 42}
	d := AdDomain{Name: "cheappills7.com"}
	u := AdURL(c, d)
	id, redirect, ok := DecodeCampaignToken(u)
	if !ok || id != 42 || redirect {
		t.Fatalf("decode(%q) = %d,%v,%v", u, id, redirect, ok)
	}
	d.Redirector = true
	u = AdURL(c, d)
	id, redirect, ok = DecodeCampaignToken(u)
	if !ok || id != 42 || !redirect {
		t.Fatalf("decode(%q) = %d,%v,%v", u, id, redirect, ok)
	}
}

func TestDecodeCampaignTokenRejects(t *testing.T) {
	for _, u := range []string{
		"http://x.com/",
		"http://x.com",
		"http://x.com/p/x42",
		"http://x.com/p/c-3",
		"http://x.com/p/cabc",
		"",
	} {
		if _, _, ok := DecodeCampaignToken(u); ok {
			t.Errorf("DecodeCampaignToken(%q) unexpectedly ok", u)
		}
	}
}

func TestChaffURL(t *testing.T) {
	if got := ChaffURL("img-host.com"); got != "http://img-host.com/" {
		t.Fatalf("ChaffURL = %q", got)
	}
}

func TestValidate(t *testing.T) {
	good := testConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("Scale=0 accepted")
	}
	bad = good
	bad.RXLoudAffiliates = bad.RXAffiliates + 1
	if err := bad.Validate(); err == nil {
		t.Error("too many loud affiliates accepted")
	}
	bad = good
	bad.Window = simclock.Window{}
	if err := bad.Validate(); err == nil {
		t.Error("empty window accepted")
	}
	bad = good
	bad.PoisonStartDay, bad.PoisonEndDay = 10, 5
	if err := bad.Validate(); err == nil {
		t.Error("inverted poison window accepted")
	}
}

func TestWorldStats(t *testing.T) {
	w := MustGenerate(testConfig(14))
	s := w.Stats()
	if s.Programs != len(w.Programs) || s.Affiliates != len(w.Affiliates) {
		t.Fatalf("stats: %+v", s)
	}
	if s.Loud+s.Quiet+s.Tiny+s.WebOnly != len(w.Campaigns) {
		t.Fatalf("campaign classes don't sum: %+v vs %d", s, len(w.Campaigns))
	}
	if s.Mega == 0 || s.Mega > s.Loud {
		t.Fatalf("mega = %d of %d loud", s.Mega, s.Loud)
	}
	if s.SpamDomains == 0 || s.SpamDomains > s.AdDomains {
		t.Fatalf("domains: %+v", s)
	}
	if s.NominalVolume <= 0 {
		t.Fatal("no volume")
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMegaCampaignInvariants(t *testing.T) {
	w := MustGenerate(testConfig(15))
	found := 0
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		if c.Class != ClassLoud || c.Duration().Hours() < 24*45 {
			continue
		}
		found++
		// Mega volume dwarfs the ordinary loud median.
		if c.Volume < 20*w.Config.LoudVolumeMedian {
			t.Errorf("mega campaign %d volume %.0f too small", c.ID, c.Volume)
		}
		// Persistent rotation: every slot runs to campaign end.
		for _, d := range c.Domains {
			if d.Redirector {
				continue
			}
			if !d.End.Equal(c.End) {
				t.Errorf("mega campaign %d slot %s ends %v, want campaign end %v",
					c.ID, d.Name, d.End, c.End)
			}
		}
		// Weights normalize.
		sum := 0.0
		for _, d := range c.Domains {
			sum += d.Weight
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("mega campaign %d weights sum %.3f", c.ID, sum)
		}
	}
	if found == 0 {
		t.Fatal("no mega campaigns at test scale")
	}
	// At least one mega must run on a monitored botnet (the Bot feed's
	// window into the dominant volume).
	monitored := false
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		if c.Class == ClassLoud && c.Duration().Hours() >= 24*45 &&
			c.Botnet >= 0 && w.Botnets[c.Botnet].Monitored {
			monitored = true
		}
	}
	if !monitored {
		t.Fatal("no mega campaign on a monitored botnet")
	}
}

func TestWebOnlyTaggedFraction(t *testing.T) {
	cfg := testConfig(16)
	cfg.WebOnlyDomains = 2000
	cfg.WebOnlyTaggedFrac = 0.05
	w := MustGenerate(cfg)
	tagged, total := 0, 0
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		if c.Class != ClassWebOnly {
			continue
		}
		total++
		if c.Program >= 0 {
			tagged++
			info, _ := w.Info(c.Domains[0].Name)
			if info.Kind != KindStorefront || info.Program != c.Program {
				t.Fatalf("web-only storefront %s mis-indexed: %+v", c.Domains[0].Name, info)
			}
			if !info.Registered {
				t.Fatalf("web-only storefront %s unregistered", c.Domains[0].Name)
			}
		}
	}
	if total == 0 {
		t.Fatal("no web-only campaigns")
	}
	frac := float64(tagged) / float64(total)
	if frac < 0.02 || frac > 0.10 {
		t.Fatalf("web-only tagged fraction %.3f, want ~0.05", frac)
	}
}
