package mailflow

import (
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/parallel"
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
// Plans are columnar and arena-backed: an observation is a packed
// UnixNano time and two interned symbol IDs, grouped with its
// neighbours into runs of one feed, and each planning worker owns a
// planArena that hands out fixed-size blocks of observations and of
// batch times. A plan that outgrows its block takes a new block
// instead of copying, so even a mega-campaign's hundreds of thousands
// of observations are written once. A worker's blocks are reused from
// chunk to chunk: after the largest chunk (at default scale the first,
// which holds the mega-campaigns) planning takes no new blocks.
// Planning never interns — every symbol it needs was assigned by world
// generation, and the only other interning, the engine's mint
// goroutine, runs on one goroutine in a fixed order — which is what
// keeps ID assignment independent of the worker count.

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
// domain and URL (zero for a blacklist listing or a Hu junk report).
type feedObs struct {
	t      int64
	d, url symtab.ID
}

// obsRun is consecutive buffered observations of one feed, in order.
type obsRun struct {
	// feed indexes FeedNames.
	feed uint8
	obs  []feedObs
}

// obsBlock and timesBlock are the lengths of the blocks a planArena
// hands out: 8192 observations (128 KiB) and 8192 batch times (64 KiB).
const (
	obsBlock   = 8192
	timesBlock = 8192
)

// campaignPlan buffers one campaign's entire contribution: its feed
// observations, as ordered runs in its worker's obs blocks, and its
// webmail batches, whose times live in the same worker's times blocks.
type campaignPlan struct {
	runs    []obsRun
	batches []wmBatch
}

// planArena is one planning worker's buffer memory. Within a chunk it
// hands out its blocks in order; reset makes them all free again.
type planArena struct {
	// p is the plan being written, set by begin.
	p *campaignPlan

	obsBlocks   [][]feedObs
	timesBlocks [][]int64
	// nobs and ntimes count the blocks handed out since reset.
	nobs, ntimes int
	// obsFree and timesFree are the unused tails of the current blocks;
	// obsFree is stale while a run is open in the obs block.
	obsFree   []feedObs
	timesFree []int64

	// cum is uniformTimesSortedInto's prefix-sum scratch.
	cum []float64
	// scratch holds unsorted draw times for planObserve, so drawing
	// all times before the per-time chaff draws (the draw order the
	// golden streams pin down) needs no fresh slice.
	scratch []int64
}

// planChunks plans items [0, n) chunk by chunk. Workers plan a chunk's
// items on static stripes (worker w takes w, w+workers, ...), each into
// its own arena; merge then consumes the chunk's plans in item order.
// A worker's arena is reset for the next chunk only after merge
// returns, so merge must be done with every plan's buffers — the
// engine drains its webmail batches there.
func planChunks(workers, n int, plan func(a *planArena, i int), merge func(plans []campaignPlan)) {
	workers = parallel.Workers(workers)
	arenas := make([]planArena, workers)
	plans := make([]campaignPlan, min(n, planChunkSize))
	for lo := 0; lo < n; lo += planChunkSize {
		chunk := plans[:min(n-lo, planChunkSize)]
		parallel.Shards(workers, func(shard, of int) {
			a := &arenas[shard]
			a.reset()
			for i := shard; i < len(chunk); i += of {
				a.begin(&chunk[i])
				plan(a, lo+i)
				a.closeRun()
			}
		})
		merge(chunk)
	}
}

// reset frees every block for reuse. No batch may still point into
// them.
func (a *planArena) reset() {
	a.nobs, a.ntimes = 0, 0
	a.obsFree, a.timesFree = nil, nil
}

// begin empties p and makes it the plan add and batch write to.
func (a *planArena) begin(p *campaignPlan) {
	p.runs, p.batches = p.runs[:0], p.batches[:0]
	a.p = p
}

// closeRun hands the unused tail of the plan's last run back to the
// arena as the current block's free tail, so the plan's next run, or
// the worker's next plan, continues in the same block.
func (a *planArena) closeRun() {
	if n := len(a.p.runs); n > 0 {
		r := a.p.runs[n-1].obs
		a.obsFree = r[len(r):]
	}
}

// add appends one observation of feed to the current plan. A new feed
// or a full block opens a new run, on the current block's free tail or
// else on the next block, so a growing plan never copies.
func (a *planArena) add(feed uint8, o feedObs) {
	runs := a.p.runs
	n := len(runs) - 1
	if n < 0 || runs[n].feed != feed || len(runs[n].obs) == cap(runs[n].obs) {
		a.closeRun()
		w := a.obsFree
		if cap(w) == 0 {
			if a.nobs == len(a.obsBlocks) {
				a.obsBlocks = append(a.obsBlocks, make([]feedObs, 0, obsBlock))
			}
			w = a.obsBlocks[a.nobs]
			a.nobs++
		}
		runs = append(runs, obsRun{feed: feed, obs: w})
		a.p.runs = runs
		n++
	}
	runs[n].obs = append(runs[n].obs, o)
}

// batch queues one webmail batch on the current plan.
func (a *planArena) batch(b wmBatch) {
	a.p.batches = append(a.p.batches, b)
}

// times hands out n contiguous batch times: from the current block
// when they fit, else from the next block. A batch longer than a block
// gets a block of its own size, which is not kept.
func (a *planArena) times(n int) []int64 {
	if n > timesBlock {
		return make([]int64, n)
	}
	if len(a.timesFree) < n {
		if a.ntimes == len(a.timesBlocks) {
			a.timesBlocks = append(a.timesBlocks, make([]int64, timesBlock))
		}
		a.timesFree = a.timesBlocks[a.ntimes]
		a.ntimes++
	}
	t := a.timesFree[:n:n]
	a.timesFree = a.timesFree[n:]
	return t
}

// planCampaign draws one campaign's output into a's current plan. It
// is safe to call concurrently for distinct campaigns and arenas:
// every random draw comes from the campaign's own named stream (chaff
// included, via chaffIDWith), and nothing shared is written.
func (e *Engine) planCampaign(a *planArena, c *ecosystem.Campaign) {
	if c.Class == ecosystem.ClassWebOnly {
		e.planWebOnly(a, c)
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
		e.planSlot(a, &rng, c, slot, w, v, acIncl, acMult, hybIncluded)
	}
}

func (e *Engine) planSlot(a *planArena, rng *randutil.RNG, c *ecosystem.Campaign,
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
			e.planObserve(a, rng, fi, blast, n, d, url)
		}
		// Honey accounts: harvested-list coverage, blast phase only.
		for i, fi := range [2]uint8{fAc1, fAc2} {
			if !acIncl[i] {
				continue
			}
			n := rng.Poisson(v * cfg.AcExposure[i] * acMult[i] * b.HarvestedFrac)
			e.planObserve(a, rng, fi, blast, n, d, url)
		}
		// Bot monitor: captured output of monitored botnets.
		if b.Monitored {
			n := rng.Poisson(v * cfg.BotCaptureRate)
			e.planObserve(a, rng, fBot, blast, n, d, url)
		}
		// Hybrid mail sink.
		if hybIncluded {
			n := rng.Poisson(v * cfg.HybExposure)
			e.planObserve(a, rng, fHyb, blast, n, d, url)
		}
		// Webmail: the stealth trickle during the lead-in — which
		// evades filters like quiet spam, since the domain is not yet
		// known to them — then the blast's webmail share.
		webmailRate := v * cfg.WebmailExposure * b.WebmailFrac
		if lead.End.After(lead.Start) {
			nt := rng.Poisson(webmailRate * cfg.StealthTrickle)
			a.batch(wmBatch{
				d: d, class: ecosystem.ClassQuiet,
				times: uniformTimesSortedInto(a, rng, lead, nt), prefiltered: prefiltered,
			})
		}
		if blast.End.After(blast.Start) {
			nb := rng.Poisson(webmailRate)
			a.batch(wmBatch{
				d: d, class: c.Class,
				times: uniformTimesSortedInto(a, rng, blast, nb), prefiltered: prefiltered,
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
		a.batch(wmBatch{
			d: d, class: c.Class, times: uniformTimesSortedInto(a, rng, w, n),
		})
		if hybIncluded {
			k := rng.Poisson(cfg.HybQuietObs)
			e.planObserve(a, rng, fHyb, w, k, d, url)
		}
	}

	e.planBlacklist(a, rng, fDbl, &cfg.DBL, c, slot, w)
	e.planBlacklist(a, rng, fUribl, &cfg.URIBL, c, slot, w)
}

// planObserve buffers n arrivals of a URL-reporting feed, with chaff.
// Empty windows observe nothing. All n times are drawn before the
// per-time chaff draws, matching the original draw order.
func (e *Engine) planObserve(a *planArena, rng *randutil.RNG, feed uint8,
	w simclock.Window, n int, d, url symtab.ID) {
	if !w.End.After(w.Start) {
		return
	}
	a.scratch = uniformTimesNanos(rng, w, n, a.scratch[:0])
	for _, t := range a.scratch {
		a.add(feed, feedObs{t: t, d: d, url: url})
		if e.Cfg.ChaffProb > 0 && rng.Bool(e.Cfg.ChaffProb) {
			if cd, curl, ok := e.chaffIDWith(rng); ok {
				a.add(feed, feedObs{t: t, d: cd, url: curl})
			}
		}
	}
}

// planWebOnly buffers the hybrid feed's web-spam discoveries.
func (e *Engine) planWebOnly(a *planArena, c *ecosystem.Campaign) {
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
		e.planObserve(a, &rng, fHyb, w, n, slot.Sym, slot.URLSym)
	}
}

// planBlacklist buffers a blacklist's listing decision for a slot.
func (e *Engine) planBlacklist(a *planArena, rng *randutil.RNG, feed uint8,
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
	a.add(feed, feedObs{t: at, d: slot.Sym})
}
