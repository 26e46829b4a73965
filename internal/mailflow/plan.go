package mailflow

import (
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Campaign planning is the parallel half of the engine: planCampaign
// draws everything a campaign contributes — feed arrivals, webmail
// batches, blacklist listings — from the campaign's private RNG stream
// and buffers it in a campaignPlan instead of touching shared state.
// Workers plan disjoint campaigns concurrently; the engine then replays
// the buffered plans into the feeds serially, in campaign ID order, so
// order-sensitive feed semantics (dedup windows, first-seen sample
// URLs, tap streams) behave identically for every worker count.
//
// Plans are columnar and pooled: observations carry interned symbol
// IDs and packed UnixNano times, batch times live in a per-plan arena,
// and the engine reuses each plan buffer across chunks, so a steady-
// state planning pass allocates almost nothing. Planning never interns
// — every symbol it needs was assigned by world generation, and the
// only other interning, the engine's mint goroutine, runs on one
// goroutine in a fixed order — which is what keeps ID assignment
// independent of the worker count.

// Feed indexes into FeedNames, the canonical order.
const (
	fHu = iota
	fDbl
	fUribl
	fMx1
	fMx2
	fMx3
	fAc1
	fAc2
	fBot
	fHyb
)

// feedObs is one buffered feed observation: packed time, interned
// domain and URL.
type feedObs struct {
	t      int64
	d, url symtab.ID
	// feed indexes FeedNames; once selects ObserveOnce (blacklists).
	feed uint8
	once bool
}

// campaignPlan buffers one campaign's entire contribution. The engine
// reuses plan buffers across chunks: reset truncates every slice but
// keeps capacity, so steady-state planning reuses the same arenas.
type campaignPlan struct {
	obs     []feedObs
	batches []wmBatch
	// times is the arena batch time-slices are carved from. Growth
	// reallocates the backing array, but earlier sub-slices keep their
	// (already final) contents, and the engine drains all batches
	// before the plan is reused.
	times []int64
	// cum is uniformTimesSorted's prefix-sum scratch.
	cum []float64
	// scratch holds unsorted draw times for planObserve, so drawing
	// all times before the per-time chaff draws (the draw order the
	// golden streams pin down) needs no fresh slice.
	scratch []int64
}

// reset empties the plan for reuse, keeping capacity.
func (p *campaignPlan) reset() {
	p.obs = p.obs[:0]
	p.batches = p.batches[:0]
	p.times = p.times[:0]
	p.cum = p.cum[:0]
	p.scratch = p.scratch[:0]
}

// planCampaign draws one campaign's output into p. It is safe to call
// concurrently for distinct campaigns: every random draw comes from the
// campaign's own named stream (chaff included, via chaffIDWith), and
// nothing shared is written.
func (e *Engine) planCampaign(p *campaignPlan, c *ecosystem.Campaign) {
	if c.Class == ecosystem.ClassWebOnly {
		e.planWebOnly(p, c)
		return
	}
	rng := randutil.NamedInt(e.Cfg.Seed, "campaign-", c.ID)

	// Per-campaign visibility draws: whether each honeypot's or
	// account feed's addresses made it onto this campaign's lists.
	var acIncl [2]bool
	var acMult [2]float64
	for i := 0; i < 2; i++ {
		acIncl[i] = rng.Bool(e.Cfg.AcInclusionProb[i])
		sigma := e.Cfg.AcSpreadSigma[i]
		acMult[i] = rng.LogNormal(-sigma*sigma/2, sigma)
	}
	hybIncluded := rng.Bool(e.hybInclusion(c))

	for si := range c.Domains {
		slot := &c.Domains[si]
		w, frac := e.slotWindow(slot)
		if frac == 0 {
			continue
		}
		v := c.Volume * slot.Weight * frac
		e.planSlot(p, &rng, c, slot, w, v, acIncl, acMult, hybIncluded)
	}
}

func (e *Engine) planSlot(p *campaignPlan, rng *randutil.RNG, c *ecosystem.Campaign,
	slot *ecosystem.AdDomain, w simclock.Window, v float64,
	acIncl [2]bool, acMult [2]float64, hybIncluded bool) {
	cfg := &e.Cfg
	d, url := slot.Sym, slot.URLSym

	if c.Class == ecosystem.ClassLoud {
		b := &e.World.Botnets[c.Botnet]
		lead, blast := e.stealthSplit(rng, slot, w)
		// The very largest blasts are signatured outright by the
		// webmail provider; their mail is counted (the oracle sees
		// incoming volume) but never reaches an inbox.
		prefiltered := v > cfg.HuPrefilterVolume && rng.Bool(cfg.HuPrefilterProb)
		// MX honeypots: brute-force list coverage, blast phase only.
		// Inclusion is drawn per ad slot: spammers refresh their
		// finite target lists with each domain rotation, so a
		// honeypot can miss one rotation and catch the next.
		for i, fi := range [3]uint8{fMx1, fMx2, fMx3} {
			if !rng.Bool(e.Cfg.MXInclusionProb[i]) {
				continue
			}
			n := rng.Poisson(v * e.mxExp[i][c.Botnet] * b.BruteForceFrac)
			e.planObserve(p, rng, fi, blast, n, d, url)
		}
		// Honey accounts: harvested-list coverage, blast phase only.
		for i, fi := range [2]uint8{fAc1, fAc2} {
			if !acIncl[i] {
				continue
			}
			n := rng.Poisson(v * cfg.AcExposure[i] * acMult[i] * b.HarvestedFrac)
			e.planObserve(p, rng, fi, blast, n, d, url)
		}
		// Bot monitor: captured output of monitored botnets.
		if b.Monitored {
			n := rng.Poisson(v * cfg.BotCaptureRate)
			e.planObserve(p, rng, fBot, blast, n, d, url)
		}
		// Hybrid mail sink.
		if hybIncluded {
			n := rng.Poisson(v * cfg.HybExposure)
			e.planObserve(p, rng, fHyb, blast, n, d, url)
		}
		// Webmail: the stealth trickle during the lead-in — which
		// evades filters like quiet spam, since the domain is not yet
		// known to them — then the blast's webmail share.
		webmailRate := v * cfg.WebmailExposure * b.WebmailFrac
		if lead.End.After(lead.Start) {
			nt := rng.Poisson(webmailRate * cfg.StealthTrickle)
			p.batches = append(p.batches, wmBatch{
				d: d, class: ecosystem.ClassQuiet,
				times: uniformTimesSortedInto(p, rng, lead, nt), prefiltered: prefiltered,
			})
		}
		if blast.End.After(blast.Start) {
			nb := rng.Poisson(webmailRate)
			p.batches = append(p.batches, wmBatch{
				d: d, class: c.Class,
				times: uniformTimesSortedInto(p, rng, blast, nb), prefiltered: prefiltered,
			})
		}
	} else {
		// Quiet and tiny campaigns: targeted lists are nearly all
		// webmail users; honeypots effectively never see them.
		exposure := cfg.QuietWebmailExposure
		switch {
		case c.Class == ecosystem.ClassTiny:
			exposure = cfg.TinyWebmailExposure
		case c.Program < 0:
			exposure = cfg.OtherQuietWebmailExposure
		}
		n := rng.Poisson(v * exposure)
		p.batches = append(p.batches, wmBatch{
			d: d, class: c.Class, times: uniformTimesSortedInto(p, rng, w, n),
		})
		if hybIncluded {
			k := rng.Poisson(cfg.HybQuietObs)
			e.planObserve(p, rng, fHyb, w, k, d, url)
		}
	}

	e.planBlacklist(p, rng, fDbl, &cfg.DBL, c, slot, w)
	e.planBlacklist(p, rng, fUribl, &cfg.URIBL, c, slot, w)
}

// planObserve buffers n arrivals of a URL-reporting feed, with chaff.
// Empty windows observe nothing. All n times are drawn before the
// per-time chaff draws, matching the original draw order.
func (e *Engine) planObserve(p *campaignPlan, rng *randutil.RNG, feed uint8,
	w simclock.Window, n int, d, url symtab.ID) {
	if !w.End.After(w.Start) {
		return
	}
	p.scratch = uniformTimesNanos(rng, w, n, p.scratch[:0])
	for _, t := range p.scratch {
		p.obs = append(p.obs, feedObs{t: t, d: d, url: url, feed: feed})
		if e.Cfg.ChaffProb > 0 && rng.Bool(e.Cfg.ChaffProb) {
			if cd, curl, ok := e.chaffIDWith(rng); ok {
				p.obs = append(p.obs, feedObs{t: t, d: cd, url: curl, feed: feed})
			}
		}
	}
}

// planWebOnly buffers the hybrid feed's web-spam discoveries.
func (e *Engine) planWebOnly(p *campaignPlan, c *ecosystem.Campaign) {
	rng := randutil.NamedInt(e.Cfg.Seed, "campaign-", c.ID)
	for si := range c.Domains {
		slot := &c.Domains[si]
		w, frac := e.slotWindow(slot)
		if frac == 0 {
			continue
		}
		days := w.Duration().Hours() / 24
		n := rng.Poisson(e.Cfg.HybWebObsPerDay * days)
		if n == 0 && rng.Bool(0.7) {
			n = 1 // a crawler that found the domain at all logs it once
		}
		e.planObserve(p, &rng, fHyb, w, n, slot.Sym, slot.URLSym)
	}
}

// planBlacklist buffers a blacklist's listing decision for a slot.
func (e *Engine) planBlacklist(p *campaignPlan, rng *randutil.RNG, feed uint8,
	bc *BlacklistConfig, c *ecosystem.Campaign, slot *ecosystem.AdDomain, w simclock.Window) {
	if !rng.Bool(blacklistClassProb(bc, c, slot)) {
		return
	}
	latency := rng.LogNormal(0, bc.LatencySigma) * bc.LatencyMedianHours
	at := w.Start.UnixNano() + int64(latency*float64(time.Hour))
	if at < e.winStartN {
		at = e.winStartN
	}
	if at >= e.winEndN {
		return
	}
	p.obs = append(p.obs, feedObs{t: at, d: slot.Sym, feed: feed, once: true})
}
