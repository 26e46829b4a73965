package webhost

import (
	"testing"
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/faultnet"
)

// TestCrawlerThroughFaultyDialer runs a storefront crawl with the
// shared fault-injecting dialer under the HTTP transport: added latency
// and split writes must not change what the crawler sees.
func TestCrawlerThroughFaultyDialer(t *testing.T) {
	w, _ := setup(t)
	inj := faultnet.New(faultnet.Faults{
		Seed:             31,
		Latency:          time.Millisecond,
		Jitter:           2 * time.Millisecond,
		PartialWriteProb: 0.5,
	})
	cr := NewCrawlerWithDialer(w, whSrv, whAddr, inj.DialContext)

	c, slot, ok := findSlot(w, func(c *ecosystem.Campaign, d ecosystem.AdDomain) bool {
		return c.Program >= 0 && d.Alive && !d.Redirector && !d.Landing &&
			c.Class != ecosystem.ClassWebOnly
	})
	if !ok {
		t.Skip("no storefront slot")
	}
	res := cr.Visit(slot.Sym, ecosystem.AdURL(c, slot))
	if !res.OK || !res.Tagged || res.Program != c.Program {
		t.Fatalf("crawl through faults diverged: %+v", res)
	}
}
