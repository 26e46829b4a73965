// Package webcrawl simulates the full-fidelity web crawl the paper uses
// to classify feed domains (the Click Trajectories pipeline): visit a
// spam-advertised URL, follow redirections to the final storefront, and
// tag known storefronts with their affiliate program — plus, for the
// RX program, the affiliate identifier embedded in the page.
//
// The crawler consults ecosystem ground truth the way a real crawler
// consults the live web: through the domain and URL it was given.
// Domain-only feeds lose redirection context (crawling a URL
// shortener's root page reaches only its homepage), exactly as in the
// paper.
package webcrawl

import (
	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// Result is the outcome of one URL visit.
type Result struct {
	// URL is the URL Visit was given, empty for a domain's root.
	URL string
	// Domain is the registered domain of the visited URL.
	Domain domain.Name
	// OK reports whether the visit ended in an HTTP 200.
	OK bool
	// Final is the registered domain of the final page after
	// following redirects (equal to Domain if no redirect).
	Final domain.Name
	// Tagged reports whether the final page matched a storefront
	// content signature.
	Tagged bool
	// Program and Affiliate identify the storefront when tagged
	// (ecosystem IDs), else -1.
	Program   int
	Affiliate int
	// AffiliateKey is the embedded affiliate identifier, non-empty
	// only for RX-program storefronts.
	AffiliateKey string
	// Category is the goods category when tagged.
	Category ecosystem.Category
}

// Visitor abstracts URL crawling so analyses can be driven by either
// the in-process simulator (Crawler here) or the real-HTTP
// implementation in internal/webhost.
type Visitor interface {
	// Visit fetches rawURL, a URL whose registered domain has symbol
	// ID d in the world's table, follows redirects, and classifies the
	// final page. An empty rawURL visits the domain's root,
	// "http://<domain>/", the way the paper crawls domain-only feeds.
	Visit(d symtab.ID, rawURL string) Result
}

// Crawler visits URLs against a generated world. It reads the domain's
// ground truth by its ID, so it parses no URL: the URL matters only
// for a redirection service, whose path carries the campaign token.
type Crawler struct {
	World *ecosystem.World
	// Visits counts URL fetches (including redirect hops).
	Visits int64
}

// New returns a crawler over the world.
func New(w *ecosystem.World) *Crawler {
	return &Crawler{World: w}
}

// Visit fetches a URL on domain d, following any redirect to the
// storefront.
func (c *Crawler) Visit(d symtab.ID, rawURL string) Result {
	c.Visits++
	name := domain.Name(c.World.Syms.Lookup(d))
	res := Result{URL: rawURL, Domain: name, Final: name, Program: -1, Affiliate: -1}
	info, known := c.World.InfoID(d)
	if !known {
		return res // NXDOMAIN or dead host
	}

	switch info.Kind {
	case ecosystem.KindBenign:
		res.OK = true
		// A redirection-service URL with a valid token forwards to
		// the campaign's storefront; anything else is just a benign
		// page.
		if info.Redirector {
			if campaignID, redirect, ok := ecosystem.DecodeCampaignToken(rawURL); ok && redirect {
				c.followToStorefront(&res, campaignID)
			}
		}
		return res
	case ecosystem.KindObscure, ecosystem.KindWebOnly:
		res.OK = info.Alive
		return res
	case ecosystem.KindStorefront:
		if !info.Alive {
			return res
		}
		res.OK = true
		c.tag(&res, info)
		return res
	case ecosystem.KindLanding:
		if !info.Alive {
			return res
		}
		// The landing page redirects to the program-hosted
		// storefront, which tags like the storefront itself.
		c.Visits++
		res.OK = true
		c.tag(&res, info)
		return res
	default:
		return res
	}
}

// followToStorefront resolves a redirector token to its campaign's
// storefront. Program-hosted storefront backends stay reachable even
// when individual advertised domains die.
func (c *Crawler) followToStorefront(res *Result, campaignID int) {
	if campaignID < 0 || campaignID >= len(c.World.Campaigns) {
		return
	}
	c.Visits++
	camp := &c.World.Campaigns[campaignID]
	if camp.Program < 0 {
		// Unbranded goods: live site, no signature match.
		return
	}
	info := &ecosystem.DomainInfo{
		Program:   camp.Program,
		Affiliate: camp.Affiliate,
		Category:  c.World.Programs[camp.Program].Category,
	}
	c.tag(res, info)
}

// tag applies the storefront content signatures.
func (c *Crawler) tag(res *Result, info *ecosystem.DomainInfo) {
	if info.Program < 0 || !info.Category.Tagged() {
		return
	}
	res.Tagged = true
	res.Program = info.Program
	res.Affiliate = info.Affiliate
	res.Category = info.Category
	if c.World.Programs[info.Program].RX && info.Affiliate >= 0 {
		res.AffiliateKey = c.World.Affiliates[info.Affiliate].Key
	}
}
