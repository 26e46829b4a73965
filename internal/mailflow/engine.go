package mailflow

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/oracle"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Result is the output of a collection run: the ten feeds and the
// incoming-mail oracle.
type Result struct {
	// Feeds maps feed mnemonics (FeedNames) to the collected feeds.
	Feeds map[string]*feeds.Feed
	// Order is the canonical feed order (Table 1's row order).
	Order []string
	// Oracle holds incoming-mail volumes at the webmail provider.
	Oracle *oracle.Oracle
	// HumanReports is the total number of "this is spam" clicks.
	HumanReports int64
}

// UnknownFeedError reports a lookup of a feed name the result does not
// hold — a misconfigured mnemonic, or a hook that removed a feed.
type UnknownFeedError struct {
	Name string
}

func (e *UnknownFeedError) Error() string {
	return fmt.Sprintf("mailflow: unknown feed %q", e.Name)
}

// Feed returns the named feed. Unknown names panic with an
// *UnknownFeedError; Engine.Run recovers that panic and returns it as
// an ordinary error, so a configuration-reachable bad name fails the
// run instead of crashing the process. Callers outside a run can use
// Lookup for a non-panicking variant.
func (r *Result) Feed(name string) *feeds.Feed {
	f, err := r.Lookup(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Lookup returns the named feed or an *UnknownFeedError.
func (r *Result) Lookup(name string) (*feeds.Feed, error) {
	f, ok := r.Feeds[name]
	if !ok {
		return nil, &UnknownFeedError{Name: name}
	}
	return f, nil
}

// BaseOrder returns the non-blacklist ("base") feeds in canonical
// order; the paper could crawl only domains occurring in these.
func (r *Result) BaseOrder() []string {
	var out []string
	for _, name := range r.Order {
		if r.Feeds[name].Kind != feeds.KindBlacklist {
			out = append(out, name)
		}
	}
	return out
}

// planChunkSize is how many campaigns are planned in parallel before
// their buffered output is merged and the webmail chains drained.
// Chunk boundaries only group work, never reorder it. The bound on
// buffered memory is loose: campaigns are generated class by class,
// so the first chunk holds the mega-campaigns and, at default scale,
// two thirds of all observations, and the arena blocks it takes serve
// every later chunk.
const planChunkSize = 1024

// Engine runs collection over a generated world.
//
// The run is a chunked plan/merge pipeline. Workers plan disjoint
// campaigns concurrently (see plan.go), each drawing only from its
// campaign's private RNG stream; the engine replays the buffered feed
// observations serially in campaign ID order, then drains the queued
// webmail batches through per-domain chains sharded across workers
// (see webmail.go). Meanwhile one goroutine interns and buffers the
// junk and poison streams (see mint), which the engine replays after
// the campaigns. Because work is assigned by campaign ID and domain
// hash — pure functions of the input, never of timing — the output is
// byte-identical for every Config.Workers value and GOMAXPROCS
// setting; the golden tests pin this down.
type Engine struct {
	World *ecosystem.World
	Cfg   Config
	// OnFeeds, when set, is invoked with the freshly created feeds
	// before any observation is recorded — the hook for attaching
	// feeds.Tap subscription streams (see internal/feedsync).
	OnFeeds func(map[string]*feeds.Feed)
	// Metrics observes the run; the zero value is inert. Instruments
	// only count, so enabling them cannot change the output.
	Metrics Metrics
	// Tracer records a span per run phase when set. Simulations should
	// construct it with a simclock-derived clock so spans line up with
	// simulated time; nil disables tracing entirely.
	Tracer *obs.Tracer

	window simclock.Window
	// winStartN and winEndN are the window bounds as UnixNano.
	winStartN, winEndN int64
	res                *Result
	wm                 *webmail
	// syms is the world's shared symbol table; every domain and URL
	// the engine touches is interned here, by generation or by the
	// mint goroutine (see mint).
	syms *symtab.Table
	// feedArr holds the feeds in FeedNames order for indexed replay.
	feedArr [fHyb + 1]*feeds.Feed

	// mxExp[i][b] is honeypot i's arrivals-per-volume for botnet b.
	mxExp [3][]float64

	chaffRng  *randutil.RNG
	chaffZipf *randutil.Zipf

	// timesBuf is scratch for the phases on the Run goroutine (the
	// mint goroutine and the planning arenas have their own).
	timesBuf []int64
}

// New creates an engine; Run may be called once.
func New(w *ecosystem.World, cfg Config) *Engine {
	return &Engine{World: w, Cfg: cfg, window: w.Config.Window}
}

// Run performs the whole collection: campaign observation at every
// collection point, typo and chaff pollution, poisoning, blacklist
// aggregation, and the oracle's benign-mail baseline.
//
// A feed lookup that fails during the run — possible when an OnFeeds
// hook tampers with the feed map, or a config names a feed that does
// not exist — is returned as an *UnknownFeedError rather than left to
// crash the process. Other panics propagate unchanged.
func (e *Engine) Run() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ufe, ok := p.(*UnknownFeedError); ok {
				res, err = nil, ufe
				return
			}
			panic(p)
		}
	}()
	if err := e.Cfg.Validate(); err != nil {
		return nil, err
	}
	e.syms = e.World.Syms
	e.winStartN = e.window.Start.UnixNano()
	e.winEndN = e.window.End.UnixNano()
	e.res = &Result{
		Feeds: map[string]*feeds.Feed{
			"Hu":    feeds.New("Hu", feeds.KindHuman, false, false),
			"dbl":   feeds.New("dbl", feeds.KindBlacklist, false, false),
			"uribl": feeds.New("uribl", feeds.KindBlacklist, false, false),
			"mx1":   feeds.New("mx1", feeds.KindMXHoneypot, true, true),
			"mx2":   feeds.New("mx2", feeds.KindMXHoneypot, true, true),
			"mx3":   feeds.New("mx3", feeds.KindMXHoneypot, true, true),
			"Ac1":   feeds.New("Ac1", feeds.KindHoneyAccount, true, true),
			"Ac2":   feeds.New("Ac2", feeds.KindHoneyAccount, true, true),
			"Bot":   feeds.New("Bot", feeds.KindBotnet, true, true),
			"Hyb":   feeds.New("Hyb", feeds.KindHybrid, false, true),
		},
		Order:  append([]string(nil), FeedNames...),
		Oracle: oracle.New(oracle.PaperOracleWindow(e.window)),
	}
	if e.OnFeeds != nil {
		e.OnFeeds(e.res.Feeds)
	}
	// Generation interned every domain that campaigns, typos and
	// blacklist junk name, so each feed's ID index is sized for them
	// here; sizeFeeds grows it for the mint's names.
	for i, name := range FeedNames {
		f := e.res.Feed(name)
		f.Bind(e.syms)
		f.Grow(0, e.syms.Len())
		e.feedArr[i] = f
	}
	root := randutil.New(e.Cfg.Seed)

	// The junk and poison names are interned on one goroutine while
	// campaigns are planned; Run waits for it on every return path.
	// The table's index and AutoURL cache are sized for them first,
	// so neither doubles while the mint runs.
	e.syms.Reserve(e.mintSymbols())
	var m minted
	var minting sync.WaitGroup
	minting.Add(1)
	hpjunk, poison, hujunk := root.SplitNamed("hpjunk"), root.SplitNamed("poison"), root.SplitNamed("hujunk")
	go func() {
		defer minting.Done()
		sp := e.Tracer.Start("mint")
		e.mint(&m, hpjunk, poison, hujunk)
		sp.End()
	}()
	defer minting.Wait()

	e.wm = newWebmail(&e.Cfg, e.window, e.res.Feed("Hu"), e.res.Oracle)
	e.wm.chaffWith = func(rng *randutil.RNG) (symtab.ID, bool) {
		d, _, ok := e.chaffIDWith(rng)
		return d, ok
	}

	e.chaffRng = root.SplitNamed("chaff")
	chaffN := e.Cfg.ChaffTopN
	if chaffN <= 0 || chaffN > len(e.World.Benign) {
		chaffN = len(e.World.Benign)
	}
	if chaffN > 0 {
		e.chaffZipf = randutil.NewZipf(e.Cfg.ChaffZipfS, chaffN)
	}
	e.initExposures(root.SplitNamed("exposures"))

	e.phase("observeCampaigns", func() { e.observeCampaigns(parallel.Workers(e.Cfg.Workers)) })

	e.phase("typoTraffic", func() { e.typoTraffic(root.SplitNamed("typos")) })
	minting.Wait()
	e.phase("sizeFeeds", func() { e.sizeFeeds(&m) })
	e.phase("honeypotJunk", func() { e.replay(m.honeypot) })
	e.phase("poison", func() { e.replay(m.poison) })
	e.phase("huJunk", func() { e.replay(m.hu) })
	e.phase("blacklistJunk", func() { e.blacklistJunk(root.SplitNamed("bljunk")) })
	e.phase("benignBaseline", e.benignBaseline)
	e.phase("restrictBlacklists", e.restrictBlacklists)

	e.res.HumanReports = e.wm.reports
	return e.res, nil
}

// phase runs fn under a tracer span; free when Tracer is nil.
func (e *Engine) phase(name string, fn func()) {
	sp := e.Tracer.Start(name)
	fn()
	sp.End()
}

// observeCampaigns runs the chunked plan/merge pipeline over every
// campaign: plan a chunk in parallel, replay its feed observations in
// campaign order, queue its webmail batches, drain the chains.
func (e *Engine) observeCampaigns(workers int) {
	camps := e.World.Campaigns
	planChunks(workers, len(camps), func(a *planArena, i int) {
		e.planCampaign(a, &camps[i])
	}, func(plans []campaignPlan) {
		var nobs, batches int64
		for i := range plans {
			p := &plans[i]
			e.replay(p.runs)
			for _, r := range p.runs {
				nobs += int64(len(r.obs))
			}
			batches += int64(len(p.batches))
			for _, b := range p.batches {
				e.wm.enqueue(b)
			}
		}
		e.Metrics.CampaignsPlanned.Add(int64(len(plans)))
		e.Metrics.Observations.Add(nobs)
		e.Metrics.WebmailBatches.Add(batches)
		e.Metrics.DrainDepth.Observe(float64(batches))
		// flush drains every queued batch before the next chunk reuses
		// the arena blocks the batch times point into.
		e.wm.flush(workers)
	})
}

// initExposures draws the per-(honeypot, botnet) list-presence
// multipliers. A log-normal with mu = -sigma^2/2 has mean 1, so the
// configured base exposure is the expected value.
func (e *Engine) initExposures(rng *randutil.RNG) {
	for i := 0; i < 3; i++ {
		sigma := e.Cfg.MXSpreadSigma[i]
		e.mxExp[i] = make([]float64, len(e.World.Botnets))
		for b := range e.World.Botnets {
			mult := rng.LogNormal(-sigma*sigma/2, sigma)
			if i == 2 && e.World.Botnets[b].Monitored {
				mult *= e.Cfg.MX3MonitoredBoost
			}
			e.mxExp[i][b] = e.Cfg.MXExposure[i] * mult
		}
	}
}

// chaffIDWith draws a chaff domain (a benign domain weighted toward
// the popular ones, from the bounded chaff vocabulary) using the
// caller's RNG, returning its interned name and chaff-URL IDs. The
// Zipf table is read-only, so concurrent callers with distinct RNGs
// are safe.
func (e *Engine) chaffIDWith(rng *randutil.RNG) (d, url symtab.ID, ok bool) {
	if e.chaffZipf == nil {
		return 0, 0, false
	}
	b := &e.World.Benign[e.chaffZipf.NextWith(rng)]
	return b.Sym, b.URLSym, true
}

// uniformTimesNanos appends n times uniform over w to buf, as packed
// UnixNano, consuming exactly one Float64 draw per time. It grows buf
// once, so a caller reusing a short buffer for a long stream does not
// regrow it step by step.
func uniformTimesNanos(rng *randutil.RNG, w simclock.Window, n int, buf []int64) []int64 {
	buf = slices.Grow(buf, n)
	span := float64(w.Duration())
	startN := w.Start.UnixNano()
	for i := 0; i < n; i++ {
		buf = append(buf, startN+int64(rng.Float64()*span))
	}
	return buf
}

// uniformTimesSortedInto returns n times uniform over w in ascending
// order, carved from a's times blocks, in O(n) without sorting: with
// E_1..E_{n+1} i.i.d. Exp(1) and S_i their prefix sums, (S_1/S_{n+1},
// ..., S_n/S_{n+1}) has exactly the distribution of n sorted uniforms.
// This replaces the reflection-based sort.Slice that used to dominate
// the webmail path; the prefix-sum scratch is reused across the
// arena's lifetime.
func uniformTimesSortedInto(a *planArena, rng *randutil.RNG, w simclock.Window, n int) []int64 {
	if n <= 0 {
		return nil
	}
	if cap(a.cum) < n {
		a.cum = make([]float64, n)
	} else {
		a.cum = a.cum[:n]
	}
	acc := 0.0
	for i := range a.cum {
		acc += rng.ExpFloat64()
		a.cum[i] = acc
	}
	acc += rng.ExpFloat64()
	span := float64(w.Duration())
	startN := w.Start.UnixNano()
	times := a.times(n)
	for i, c := range a.cum {
		times[i] = startN + int64(c/acc*span)
	}
	return times
}

// slotWindow clips an ad slot to the measurement window, returning the
// clipped window and the fraction of the slot it covers.
func (e *Engine) slotWindow(d *ecosystem.AdDomain) (simclock.Window, float64) {
	start, end := d.Start, d.End
	if start.Before(e.window.Start) {
		start = e.window.Start
	}
	if end.After(e.window.End) {
		end = e.window.End
	}
	if !end.After(start) {
		return simclock.Window{}, 0
	}
	frac := float64(end.Sub(start)) / float64(d.End.Sub(d.Start))
	return simclock.Window{Start: start, End: end}, frac
}

// stealthSplit divides a loud ad slot's clipped window into the
// stealth lead-in (webmail-only deliverability testing) and the blast
// phase. The lead runs from the slot's true start, so slots that began
// before the measurement window are already blasting on day zero.
func (e *Engine) stealthSplit(rng *randutil.RNG, slot *ecosystem.AdDomain,
	w simclock.Window) (lead, blast simclock.Window) {
	cfg := &e.Cfg
	leadDays := cfg.StealthLeadMinDays +
		rng.Float64()*(cfg.StealthLeadMaxDays-cfg.StealthLeadMinDays)
	leadDur := time.Duration(leadDays * 24 * float64(time.Hour))
	if max := slot.End.Sub(slot.Start) / 2; leadDur > max {
		leadDur = max
	}
	leadEnd := slot.Start.Add(leadDur)
	if leadEnd.Before(w.Start) {
		leadEnd = w.Start
	}
	if leadEnd.After(w.End) {
		leadEnd = w.End
	}
	return simclock.Window{Start: w.Start, End: leadEnd},
		simclock.Window{Start: leadEnd, End: w.End}
}

// hybInclusion returns the probability the hybrid feed's sources pick
// up a campaign: biased against the largest loud campaigns.
func (e *Engine) hybInclusion(c *ecosystem.Campaign) float64 {
	cfg := &e.Cfg
	switch c.Class {
	case ecosystem.ClassLoud:
		const vLo, vHi = 5e3, 3e5
		t := (math.Log(math.Max(c.Volume, vLo)) - math.Log(vLo)) /
			(math.Log(vHi) - math.Log(vLo))
		if t > 1 {
			t = 1
		}
		return cfg.HybLoudInclusionLow + t*(cfg.HybLoudInclusionHigh-cfg.HybLoudInclusionLow)
	case ecosystem.ClassTiny:
		return cfg.HybTinyInclusion
	default:
		return cfg.HybQuietInclusion
	}
}

// blacklistClassProb returns the listing probability for a slot.
func blacklistClassProb(bc *BlacklistConfig, c *ecosystem.Campaign, slot *ecosystem.AdDomain) float64 {
	var p float64
	switch {
	case c.Class == ecosystem.ClassLoud && c.Program >= 0:
		p = bc.ListProbLoud
	case c.Class == ecosystem.ClassLoud:
		p = bc.ListProbOtherLoud
	case c.Class == ecosystem.ClassTiny:
		p = bc.ListProbTiny
	case c.Program >= 0:
		p = bc.ListProbQuiet
	default:
		p = bc.ListProbOtherQuiet
	}
	if slot.Redirector {
		// Blacklist operators are reluctant to list popular benign
		// domains even when abused as redirectors.
		p *= 0.08
	}
	return p
}

// typoTraffic delivers stray legitimate mail to the MX honeypots
// (sender typos, dummy signup addresses) — their benign-domain
// contamination.
func (e *Engine) typoTraffic(rng *randutil.RNG) {
	days := e.window.Duration().Hours() / 24
	for _, name := range []string{"mx1", "mx2", "mx3"} {
		n := rng.Poisson(e.Cfg.MXTypoRate * days)
		f := e.res.Feed(name)
		e.timesBuf = uniformTimesNanos(rng, e.window, n, e.timesBuf[:0])
		for _, t := range e.timesBuf {
			if cd, curl, ok := e.chaffIDWith(e.chaffRng); ok {
				f.ObserveID(t, cd, curl)
			}
		}
	}
}

// minted holds the observations the mint goroutine draws. It is the
// only interning after generation: the honeypot junk, the Bot and mx2
// poison and the Hu junk, each from its own named stream, interned as
// drawn, in that order. Run replays the buffered runs with ObserveID
// where the three phases observed directly before, so every feed sees
// the same observation order and the table the same intern order.
type minted struct {
	honeypot, poison, hu []obsRun
	// nameBuf and times are the goroutine's own scratch.
	nameBuf []byte
	times   []int64
}

// mint fills m. It reads only e.Cfg, e.window, e.World and e.syms, and
// touches no feed and no metric, so it runs beside campaign planning.
func (e *Engine) mint(m *minted, hpjunk, poison, hujunk *randutil.RNG) {
	e.honeypotJunk(m, hpjunk)
	e.poison(m, poison)
	e.huJunk(m, hujunk)
}

// mintSymbols estimates the symbols mint interns from the configured
// arrival counts: each minted observation interns at most a name and
// its URL (Hu's junk reports carry no URL), and a poison arrival mints
// a name only when it is fresh. Junk counts are taken at their means
// and fresh poison names at their expected number; counting every
// poison arrival as fresh would double the index past its final size.
func (e *Engine) mintSymbols() int {
	c := &e.Cfg
	hpjunk := float64(len(junkFeeds)) * c.HoneypotJunkPerDay * e.window.Duration().Hours() / 24
	poison := float64(c.PoisonBotArrivals)*c.PoisonFreshProbBot +
		float64(c.PoisonMX2Arrivals)*c.PoisonFreshProbMX2
	return int(2*(hpjunk+poison) + c.HuJunkReports)
}

// sizeFeeds grows each feed once for the mint's buffered runs before
// they are replayed: its rows by the distinct domains that are new to
// it, counted exactly, and its ID index to the highest replayed ID.
// Sizing by observations would over-reserve: most poison arrivals
// repeat a recent name.
func (e *Engine) sizeFeeds(m *minted) {
	// seen[d] is 1 + the index of the last feed that counted d.
	seen := make([]uint8, e.syms.Len())
	for fi, f := range e.feedArr {
		rows, ids := 0, 0
		for _, runs := range [...][]obsRun{m.honeypot, m.poison, m.hu} {
			for _, r := range runs {
				if int(r.feed) != fi {
					continue
				}
				for _, o := range r.obs {
					ids = max(ids, int(o.d)+1)
					if seen[o.d] != uint8(fi+1) && !f.HasID(o.d) {
						seen[o.d] = uint8(fi + 1)
						rows++
					}
				}
			}
		}
		f.Grow(rows, ids)
	}
}

// replay observes buffered runs in order. The blacklists' runs are
// listings, of which ObserveOnceID keeps the earliest per domain.
func (e *Engine) replay(runs []obsRun) {
	for _, r := range runs {
		f := e.feedArr[r.feed]
		if r.feed == fDbl || r.feed == fUribl {
			for _, o := range r.obs {
				f.ObserveOnceID(o.t, o.d)
			}
			continue
		}
		for _, o := range r.obs {
			f.ObserveID(o.t, o.d, o.url)
		}
	}
}

// junkFeeds are the honeypot-style feeds honeypotJunk draws for.
var junkFeeds = [...]uint8{fMx1, fMx2, fMx3, fAc1, fAc2}

// honeypotJunk draws each honeypot-style feed's trickle of one-off
// junk domains (misparsed URLs, garbage hostnames in spam).
func (e *Engine) honeypotJunk(m *minted, rng *randutil.RNG) {
	days := e.window.Duration().Hours() / 24
	for _, fi := range junkFeeds {
		n := rng.Poisson(e.Cfg.HoneypotJunkPerDay * days)
		m.times = uniformTimesNanos(rng, e.window, n, m.times[:0])
		run := obsRun{feed: fi, obs: make([]feedObs, 0, n)}
		for _, t := range m.times {
			// Mostly garbage hostnames; occasionally a real but
			// obscure registered domain (mis-scraped signatures,
			// stray URLs) — each feed's private tail of exclusive
			// live domains.
			var d symtab.ID
			if len(e.World.Obscure) > 0 && rng.Bool(0.15) {
				d = e.World.ObscureSyms[rng.Intn(len(e.World.Obscure))]
			} else {
				ln := 6 + rng.Intn(10)
				m.nameBuf = rng.AppendAlphaNum(m.nameBuf[:0], ln)
				m.nameBuf = append(m.nameBuf, ".com"...)
				d = e.syms.InternBytes(m.nameBuf)
			}
			run.obs = append(run.obs, feedObs{t, d, e.syms.AutoURL(d)})
		}
		m.honeypot = append(m.honeypot, run)
	}
}

// poison draws the Rustock episode for the Bot and mx2 feeds.
func (e *Engine) poison(m *minted, rng *randutil.RNG) {
	if e.World.Poisoner() == nil {
		return
	}
	pw := e.World.PoisonWindow()
	if !pw.End.After(pw.Start) {
		return
	}
	inject := func(feed uint8, arrivals int, fresh float64, stream string) {
		src := newPoisonSourceSyms(rng.SplitNamed(stream), fresh,
			e.Cfg.PoisonLiveHitProb, e.syms, e.World.ObscureSyms)
		tRng := rng.SplitNamed(stream + "-times")
		m.times = uniformTimesNanos(tRng, pw, arrivals, m.times[:0])
		run := obsRun{feed: feed, obs: make([]feedObs, 0, arrivals)}
		for _, t := range m.times {
			d := src.NextID()
			run.obs = append(run.obs, feedObs{t, d, e.syms.AutoURL(d)})
		}
		m.poison = append(m.poison, run)
	}
	inject(fBot, e.Cfg.PoisonBotArrivals, e.Cfg.PoisonFreshProbBot, "bot")
	inject(fMx2, e.Cfg.PoisonMX2Arrivals, e.Cfg.PoisonFreshProbMX2, "mx2")
}

// huJunk draws bogus human reports (typo domains, garbage) for Hu.
func (e *Engine) huJunk(m *minted, rng *randutil.RNG) {
	n := rng.Poisson(e.Cfg.HuJunkReports)
	m.times = uniformTimesNanos(rng, e.window, n, m.times[:0])
	run := obsRun{feed: fHu, obs: make([]feedObs, 0, n)}
	for _, t := range m.times {
		ln := 5 + rng.Intn(9)
		m.nameBuf = rng.AppendAlphaNum(m.nameBuf[:0], ln)
		m.nameBuf = append(m.nameBuf, ".com"...)
		run.obs = append(run.obs, feedObs{t: t, d: e.syms.InternBytes(m.nameBuf)})
	}
	m.hu = append(m.hu, run)
}

// blacklistJunk adds each blacklist's rare benign-domain mistakes.
// Unlike chaff, these are mostly obscure benign domains — a blacklist
// operator does not accidentally list the global top sites.
func (e *Engine) blacklistJunk(rng *randutil.RNG) {
	benign := e.World.Benign
	if len(benign) == 0 {
		return
	}
	// Draw from the lower ranks of the chaff vocabulary: popular
	// enough to co-occur in the base feeds (so they survive the
	// blacklist restriction, as the paper's contaminants did), but
	// not the global top sites whose volume would dominate.
	hi := e.Cfg.ChaffTopN
	if hi <= 0 || hi > len(benign) {
		hi = len(benign)
	}
	lo := hi / 5
	lists := []struct {
		name string
		bc   *BlacklistConfig
	}{{"dbl", &e.Cfg.DBL}, {"uribl", &e.Cfg.URIBL}}
	for _, l := range lists {
		f := e.res.Feed(l.name)
		n := rng.Poisson(l.bc.JunkBenign)
		e.timesBuf = uniformTimesNanos(rng, e.window, n, e.timesBuf[:0])
		for _, t := range e.timesBuf {
			d := benign[lo+rng.Intn(hi-lo)].Sym
			f.ObserveOnceID(t, d)
		}
	}
}

// benignBaseline adds legitimate-mail volume for benign domains to the
// oracle: popular domains appear in enormous amounts of ordinary mail,
// which is why un-excluded Alexa/ODP domains dominate feed volume.
func (e *Engine) benignBaseline() {
	for i := range e.World.Benign {
		b := &e.World.Benign[i]
		n := int64(e.Cfg.BenignMailTop / math.Pow(float64(b.Rank+1), e.Cfg.BenignMailZipfS))
		e.res.Oracle.AddBulkID(b.Sym, n)
	}
}

// restrictBlacklists applies the paper's methodology: blacklist entries
// that never co-occur in a base feed could not be crawled and are
// dropped from the dataset.
func (e *Engine) restrictBlacklists() {
	base := e.res.BaseOrder()
	baseFeeds := make([]*feeds.Feed, len(base))
	for i, name := range base {
		baseFeeds[i] = e.res.Feed(name)
	}
	keep := func(d symtab.ID) bool {
		for _, f := range baseFeeds {
			if f.HasID(d) {
				return true
			}
		}
		return false
	}
	for _, bl := range []string{"dbl", "uribl"} {
		e.res.Feed(bl).RetainID(keep)
	}
}
