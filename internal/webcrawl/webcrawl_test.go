package webcrawl

import (
	"testing"

	"tasterschoice/internal/ecosystem"
)

// testWorld builds a small world and finds interesting campaign slots.
func testWorld(t *testing.T) *ecosystem.World {
	t.Helper()
	cfg := ecosystem.DefaultConfig(99)
	cfg.Scale = 0.1
	cfg.RXAffiliates = 120
	cfg.RXLoudAffiliates = 8
	cfg.BenignDomains = 1500
	cfg.AlexaTopN = 600
	cfg.ODPDomains = 300
	cfg.ObscureRegistered = 200
	cfg.WebOnlyDomains = 300
	cfg.OtherGoodsCampaigns = 300
	cfg.RedirectorAdFrac = 0.3 // force redirector slots into existence
	return ecosystem.MustGenerate(cfg)
}

// findSlot returns the first campaign/ad-slot satisfying pred.
func findSlot(w *ecosystem.World, pred func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool) (*ecosystem.Campaign, ecosystem.AdDomain, bool) {
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

func TestVisitAliveStorefrontTagged(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Alive && !d.Redirector && !d.Landing
	})
	if !ok {
		t.Skip("no storefront slot in test world")
	}
	res := cr.Visit(d.Sym, ecosystem.AdURL(c, d))
	if !res.OK || !res.Tagged {
		t.Fatalf("storefront visit: %+v", res)
	}
	if res.Program != c.Program || res.Affiliate != c.Affiliate {
		t.Fatalf("tag mismatch: %+v vs campaign %d/%d", res, c.Program, c.Affiliate)
	}
	wantCat := w.Programs[c.Program].Category
	if res.Category != wantCat {
		t.Fatalf("category %v, want %v", res.Category, wantCat)
	}
}

func TestVisitDeadDomainNotOK(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return !d.Alive && !d.Redirector
	})
	if !ok {
		t.Skip("no dead slot")
	}
	res := cr.Visit(d.Sym, ecosystem.AdURL(c, d))
	if res.OK || res.Tagged {
		t.Fatalf("dead domain crawled OK: %+v", res)
	}
}

func TestVisitLandingRedirectsToTag(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Alive && d.Landing
	})
	if !ok {
		t.Skip("no landing slot")
	}
	res := cr.Visit(d.Sym, ecosystem.AdURL(c, d))
	if !res.OK || !res.Tagged || res.Program != c.Program {
		t.Fatalf("landing visit: %+v", res)
	}
}

func TestRedirectorURLvsRoot(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Redirector
	})
	if !ok {
		t.Skip("no redirector slot")
	}
	// Full URL (with token): reaches and tags the storefront.
	res := cr.Visit(d.Sym, ecosystem.AdURL(c, d))
	if !res.OK || !res.Tagged || res.Program != c.Program {
		t.Fatalf("redirector URL: %+v", res)
	}
	if res.Domain != d.Name {
		t.Fatalf("recorded domain %s, want redirector %s", res.Domain, d.Name)
	}
	// Bare domain (domain-only feed): benign homepage, no tag.
	root := cr.Visit(d.Sym, "")
	if !root.OK || root.Tagged {
		t.Fatalf("redirector root: %+v", root)
	}
}

func TestRXAffiliateKeyExtraction(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	rx := w.RXProgram()
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program == rx.ID && d.Alive && !d.Redirector
	})
	if !ok {
		t.Skip("no RX slot")
	}
	res := cr.Visit(d.Sym, ecosystem.AdURL(c, d))
	if !res.Tagged {
		t.Fatalf("RX storefront untagged: %+v", res)
	}
	want := w.Affiliates[c.Affiliate].Key
	if res.AffiliateKey != want {
		t.Fatalf("affiliate key %q, want %q", res.AffiliateKey, want)
	}
	// Non-RX storefronts never expose a key.
	c2, d2, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && c.Program != rx.ID && d.Alive && !d.Redirector
	})
	if ok {
		if res := cr.Visit(d2.Sym, ecosystem.AdURL(c2, d2)); res.AffiliateKey != "" {
			t.Fatalf("non-RX storefront leaked key %q", res.AffiliateKey)
		}
	}
}

func TestVisitUnknownDomain(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	res := cr.Visit(w.Syms.Intern("no-such-domain-xyz123.com"), "http://no-such-domain-xyz123.com/p/c1")
	if res.OK || res.Tagged {
		t.Fatalf("unknown domain: %+v", res)
	}
	res = cr.Visit(w.Syms.Intern("192.168.0.1"), "http://192.168.0.1/p/c1")
	if res.OK {
		t.Fatalf("IP URL: %+v", res)
	}
}

func TestVisitBenignAndObscure(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	b := w.Benign[0]
	res := cr.Visit(b.Sym, "")
	if !res.OK || res.Tagged {
		t.Fatalf("benign: %+v", res)
	}
	res = cr.Visit(w.ObscureSyms[0], "")
	if !res.OK || res.Tagged {
		t.Fatalf("obscure: %+v", res)
	}
}

func TestVisitRedirectorBadToken(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	if len(w.Redirectors()) == 0 {
		t.Skip("no redirectors")
	}
	r := w.Redirectors()[0]
	id, _ := w.Syms.Find(string(r))
	res := cr.Visit(id, "http://"+string(r)+"/r/c999999999")
	if !res.OK {
		t.Fatal("redirector homepage should be OK")
	}
	if res.Tagged {
		t.Fatal("stale token should not tag")
	}
}

func TestWebOnlyDomainCrawl(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	c, d, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Class == ecosystem.ClassWebOnly && d.Alive
	})
	if !ok {
		t.Skip("no live web-only domain")
	}
	_ = c
	res := cr.Visit(d.Sym, "")
	if !res.OK || res.Tagged {
		t.Fatalf("web-only: %+v", res)
	}
}

func TestVisitCounts(t *testing.T) {
	w := testWorld(t)
	cr := New(w)
	before := cr.Visits
	cr.Visit(w.Syms.Intern("nothing.example"), "")
	if cr.Visits != before+1 {
		t.Fatalf("Visits = %d", cr.Visits)
	}
}
