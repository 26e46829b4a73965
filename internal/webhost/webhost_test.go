package webhost

import (
	"sync"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/webcrawl"
)

var (
	whOnce sync.Once
	whW    *ecosystem.World
	whSrv  *Server
	whAddr string
	whCr   *Crawler
)

// setup builds one world + HTTP server + crawler for the whole package.
func setup(t *testing.T) (*ecosystem.World, *Crawler) {
	t.Helper()
	whOnce.Do(func() {
		cfg := ecosystem.DefaultConfig(77)
		cfg.Scale = 0.08
		cfg.RXAffiliates = 80
		cfg.RXLoudAffiliates = 6
		cfg.BenignDomains = 800
		cfg.AlexaTopN = 300
		cfg.ODPDomains = 150
		cfg.ObscureRegistered = 100
		cfg.WebOnlyDomains = 200
		cfg.OtherGoodsCampaigns = 200
		cfg.RedirectorAdFrac = 0.3
		whW = ecosystem.MustGenerate(cfg)
		whSrv = NewServer(whW)
		addr, err := whSrv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		whAddr = addr.String()
		whCr = NewCrawler(whW, whSrv, whAddr)
	})
	return whW, whCr
}

func findSlot(w *ecosystem.World, pred func(*ecosystem.Campaign, ecosystem.AdDomain) bool) (*ecosystem.Campaign, ecosystem.AdDomain, bool) {
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		for _, d := range c.Domains {
			if pred(c, d) {
				return c, d, true
			}
		}
	}
	return nil, ecosystem.AdDomain{}, false
}

func TestHTTPStorefrontTagged(t *testing.T) {
	w, cr := setup(t)
	c, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Alive && !d.Redirector && !d.Landing &&
			c.Class != ecosystem.ClassWebOnly
	})
	if !ok {
		t.Skip("no storefront slot")
	}
	res := cr.Visit(slot.Sym, ecosystem.AdURL(c, slot))
	if !res.OK || !res.Tagged || res.Program != c.Program {
		t.Fatalf("result: %+v", res)
	}
}

func TestHTTPLandingRedirectFollowed(t *testing.T) {
	w, cr := setup(t)
	c, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Alive && d.Landing
	})
	if !ok {
		t.Skip("no landing slot")
	}
	res := cr.Visit(slot.Sym, ecosystem.AdURL(c, slot))
	if !res.OK || !res.Tagged {
		t.Fatalf("result: %+v", res)
	}
	// The final page is the program backend, not the landing domain.
	if res.Final == res.Domain {
		t.Fatalf("redirect not followed: final == %s", res.Final)
	}
}

func TestHTTPRXAffiliateExtraction(t *testing.T) {
	w, cr := setup(t)
	rx := w.RXProgram()
	c, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program == rx.ID && d.Alive && !d.Redirector &&
			c.Class != ecosystem.ClassWebOnly
	})
	if !ok {
		t.Skip("no RX slot")
	}
	res := cr.Visit(slot.Sym, ecosystem.AdURL(c, slot))
	want := w.Affiliates[c.Affiliate].Key
	if res.AffiliateKey != want || res.Affiliate != c.Affiliate {
		t.Fatalf("affiliate key %q (id %d), want %q (id %d)",
			res.AffiliateKey, res.Affiliate, want, c.Affiliate)
	}
}

func TestHTTPDeadDomainUnreachable(t *testing.T) {
	w, cr := setup(t)
	_, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return !d.Alive && !d.Redirector
	})
	if !ok {
		t.Skip("no dead slot")
	}
	res := cr.Visit(slot.Sym, "")
	if res.OK {
		t.Fatalf("dead domain fetched: %+v", res)
	}
}

func TestHTTPUnknownDomainUnreachable(t *testing.T) {
	w, cr := setup(t)
	res := cr.Visit(w.Syms.Intern("never-registered-anywhere.com"), "")
	if res.OK {
		t.Fatalf("unknown domain fetched: %+v", res)
	}
}

func TestHTTPRedirectorRootBenign(t *testing.T) {
	w, cr := setup(t)
	c, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Redirector
	})
	if !ok {
		t.Skip("no redirector slot")
	}
	// Token URL tags; bare root does not.
	res := cr.Visit(slot.Sym, ecosystem.AdURL(c, slot))
	if !res.OK || !res.Tagged {
		t.Fatalf("token URL: %+v", res)
	}
	root := cr.Visit(slot.Sym, "")
	if !root.OK || root.Tagged {
		t.Fatalf("redirector root: %+v", root)
	}
}

// TestHTTPCrawlerAgreesWithSimulatedCrawler cross-validates the two
// crawler implementations over a sample of feed-visible URLs: network
// truth and simulated truth must coincide.
func TestHTTPCrawlerAgreesWithSimulatedCrawler(t *testing.T) {
	w, cr := setup(t)
	sim := webcrawl.New(w)
	checked := 0
	for i := range w.Campaigns {
		if checked >= 120 {
			break
		}
		c := &w.Campaigns[i]
		if i%3 != 0 { // sample
			continue
		}
		for _, slot := range c.Domains {
			url := ecosystem.AdURL(c, slot)
			httpRes := cr.Visit(slot.Sym, url)
			simRes := sim.Visit(slot.Sym, url)
			if httpRes.OK != simRes.OK || httpRes.Tagged != simRes.Tagged {
				t.Fatalf("disagreement on %s: http={ok:%v tag:%v} sim={ok:%v tag:%v}",
					url, httpRes.OK, httpRes.Tagged, simRes.OK, simRes.Tagged)
			}
			if httpRes.Tagged {
				if httpRes.Program != simRes.Program ||
					httpRes.AffiliateKey != simRes.AffiliateKey {
					t.Fatalf("tag disagreement on %s: http={p:%d k:%q} sim={p:%d k:%q}",
						url, httpRes.Program, httpRes.AffiliateKey,
						simRes.Program, simRes.AffiliateKey)
				}
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d URLs cross-validated", checked)
	}
	if whSrv.Requests() == 0 {
		t.Fatal("no HTTP requests observed")
	}
}

func TestProgramHostRoundTrip(t *testing.T) {
	h := ProgramHost(17)
	id, ok := parseProgramHost(h)
	if !ok || id != 17 {
		t.Fatalf("parse(%q) = %d,%v", h, id, ok)
	}
	if _, ok := parseProgramHost("www.example.com"); ok {
		t.Fatal("foreign host parsed as program host")
	}
}

func TestExtractHelpers(t *testing.T) {
	body := `<body data-program="RX-Promotion" data-category="pharma">
<span class="aff-id">rx0042</span></body>`
	if v, ok := extractAttr(body, "data-program"); !ok || v != "RX-Promotion" {
		t.Fatalf("extractAttr = %q,%v", v, ok)
	}
	if v, ok := extractSpan(body, "aff-id"); !ok || v != "rx0042" {
		t.Fatalf("extractSpan = %q,%v", v, ok)
	}
	if _, ok := extractAttr(body, "data-missing"); ok {
		t.Fatal("missing attr extracted")
	}
	if _, ok := extractSpan(body, "nope"); ok {
		t.Fatal("missing span extracted")
	}
}
