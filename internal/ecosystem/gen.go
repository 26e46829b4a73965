package ecosystem

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tasterschoice/internal/dnszone"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Generate builds a complete deterministic world from the config.
func Generate(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{Config: cfg, Syms: symtab.New()}
	root := randutil.New(cfg.Seed)
	names := newNameGen(root.SplitNamed("names"), w.Syms)

	w.genPrograms(root.SplitNamed("programs"))
	w.genAffiliates(root.SplitNamed("affiliates"))
	w.genBenign(root.SplitNamed("benign"), names)
	w.genObscure(root.SplitNamed("obscure"), names)
	w.genBotnets(root.SplitNamed("botnets"))
	w.genCampaigns(root.SplitNamed("campaigns"), names)
	w.index()
	return w, nil
}

// register logs that domain d entered its zone at from and, unless to
// is zero, left it at to.
func (w *World) register(d symtab.ID, from, to time.Time) {
	w.pending.add(registration{d: d, from: from, to: to})
}

// index sizes the per-domain ground truth and the registry once, to
// the final symbol count, and fills them from the generated records
// and the logged registrations. A domain is Registered exactly when
// Generate drew a registration for it.
func (w *World) index() {
	n := w.Syms.Len()
	w.info = make([]DomainInfo, n)
	for i := range w.Benign {
		b := &w.Benign[i]
		w.info[b.Sym] = DomainInfo{
			Kind:       KindBenign,
			Campaign:   -1,
			Program:    -1,
			Affiliate:  -1,
			Category:   CategoryOther,
			Alive:      true,
			Alexa:      b.Alexa,
			ODP:        b.ODP,
			Redirector: b.Redirector,
			BenignRank: b.Rank,
		}
	}
	for _, d := range w.ObscureSyms {
		w.info[d] = DomainInfo{
			Kind:       KindObscure,
			Campaign:   -1,
			Program:    -1,
			Affiliate:  -1,
			Category:   CategoryOther,
			Alive:      true,
			BenignRank: -1,
		}
	}
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		for _, ad := range c.Domains {
			if ad.Redirector {
				continue // a benign domain, indexed above
			}
			kind := KindStorefront
			switch {
			case c.Class == ClassWebOnly && c.Program < 0:
				kind = KindWebOnly
			case ad.Landing:
				kind = KindLanding
			}
			w.info[ad.Sym] = DomainInfo{
				Kind:       kind,
				Campaign:   c.ID,
				Program:    c.Program,
				Affiliate:  c.Affiliate,
				Category:   w.campaignCategory(c),
				Alive:      ad.Alive,
				BenignRank: -1,
			}
		}
	}
	w.Registry = dnszone.NewPaperRegistry(n)
	for _, chunk := range w.pending {
		for _, r := range chunk {
			w.Registry.Register(r.d, r.from)
			if !r.to.IsZero() {
				w.Registry.Drop(r.d, r.to)
			}
			w.info[r.d].Registered = true
		}
	}
	w.pending = nil
}

// MustGenerate is Generate that panics on error, for tests and tools
// with static configs.
func MustGenerate(cfg Config) *World {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func (w *World) genPrograms(rng *randutil.RNG) {
	add := func(cat Category, n int) {
		for i := 0; i < n; i++ {
			id := len(w.Programs)
			p := Program{ID: id, Category: cat, Name: programName(rng, cat, id)}
			if cat == CategoryPharma && i == 0 {
				p.Name = "RX-Promotion"
				p.RX = true
			}
			w.Programs = append(w.Programs, p)
		}
	}
	add(CategoryPharma, w.Config.PharmaPrograms)
	add(CategoryReplica, w.Config.ReplicaPrograms)
	add(CategorySoftware, w.Config.SoftwarePrograms)
}

func (w *World) genAffiliates(rng *randutil.RNG) {
	cfg := &w.Config
	for pi := range w.Programs {
		prog := &w.Programs[pi]
		n := cfg.RXAffiliates
		if !prog.RX {
			n = 3 + rng.Poisson(math.Max(cfg.OtherAffiliatesMean-3, 1))
		}
		base := len(w.Affiliates)
		for i := 0; i < n; i++ {
			a := Affiliate{
				ID:            base + i,
				Program:       prog.ID,
				AnnualRevenue: rng.Pareto(cfg.RevenueMin, cfg.RevenueAlpha),
				Tier:          TierTiny,
			}
			if prog.RX {
				a.Key = fmt.Sprintf("rx%04d", i) //lint:allow stringalloc -- name minting: runs once per world, feeds the interner
			}
			w.Affiliates = append(w.Affiliates, a)
		}
		// Assign tiers by revenue rank: the top QuietAffiliateFrac run
		// quiet deliverability-focused campaigns; loud affiliates come
		// from the mid-revenue band (botnet operators are modest
		// earners, per the paper's Fig. 6 discussion); the rest tiny.
		order := make([]int, n)
		for i := range order {
			order[i] = base + i
		}
		sort.Slice(order, func(i, j int) bool {
			return w.Affiliates[order[i]].AnnualRevenue > w.Affiliates[order[j]].AnnualRevenue
		})
		quietCut := int(float64(n) * cfg.QuietAffiliateFrac)
		for _, id := range order[:quietCut] {
			w.Affiliates[id].Tier = TierQuiet
		}
		nLoud := 1
		if prog.RX {
			nLoud = cfg.RXLoudAffiliates
		} else if rng.Bool(0.5) {
			nLoud = 2
		}
		// Loud affiliates from the 45th–85th revenue percentile band.
		bandLo := int(float64(n) * 0.45)
		bandHi := int(float64(n) * 0.85)
		if bandHi <= bandLo {
			bandLo, bandHi = 0, n
		}
		if nLoud > bandHi-bandLo {
			nLoud = bandHi - bandLo
		}
		for _, k := range rng.SampleInts(bandHi-bandLo, nLoud) {
			w.Affiliates[order[bandLo+k]].Tier = TierLoud
		}
	}
}

func (w *World) genBenign(rng *randutil.RNG, names *nameGen) {
	cfg := &w.Config
	n := cfg.BenignDomains
	w.Benign = make([]BenignDomain, n)
	regStart := cfg.Window.Start
	for i := 0; i < n; i++ {
		d, sym := names.Benign()
		w.Benign[i] = BenignDomain{
			Name:   d,
			Rank:   i,
			Alexa:  i < cfg.AlexaTopN,
			Sym:    sym,
			URLSym: w.Syms.AutoURL(sym),
		}
		// Registered long before the measurement window.
		w.register(sym, regStart.AddDate(0, 0, -(100+rng.Intn(2900))), time.Time{})
	}
	for _, i := range rng.SampleInts(n, cfg.ODPDomains) {
		w.Benign[i].ODP = true
	}
	// Redirection services sit in the mid-popularity band — a URL
	// shortener is well known but carries far less legitimate mail
	// volume than the global top sites.
	lo, hi := n/10, n/2
	if hi-lo < cfg.Redirectors {
		lo, hi = 0, n
	}
	for _, i := range rng.SampleInts(hi-lo, cfg.Redirectors) {
		w.Benign[lo+i].Redirector = true
		w.redirectors = append(w.redirectors, w.Benign[lo+i].Name)
	}
}

func (w *World) genObscure(rng *randutil.RNG, names *nameGen) {
	regStart := w.Config.Window.Start
	for i := 0; i < w.Config.ObscureRegistered; i++ {
		d, sym := names.Obscure()
		w.Obscure = append(w.Obscure, d)
		w.ObscureSyms = append(w.ObscureSyms, sym)
		w.register(sym, regStart.AddDate(0, 0, -(30+rng.Intn(2000))), time.Time{})
	}
}

func (w *World) genBotnets(rng *randutil.RNG) {
	cfg := &w.Config
	// Collect the loud-affiliate pool in ID order.
	var pool []int
	for i := range w.Affiliates {
		if w.Affiliates[i].Tier == TierLoud {
			pool = append(pool, i)
		}
	}
	for i := 0; i < cfg.Botnets; i++ {
		name := fmt.Sprintf("botnet%02d", i) //lint:allow stringalloc -- name minting: runs once per world, feeds the interner
		if i < len(botnetNames) {
			name = botnetNames[i]
		}
		b := Botnet{
			ID:        i,
			Name:      name,
			Monitored: i < cfg.MonitoredBotnets,
			Poisoner:  i == 0,
			// Address-list composition varies by botnet; these
			// coefficients produce the per-feed visibility spread
			// seen in the paper's pairwise matrices.
			BruteForceFrac: 0.3 + 0.6*rng.Float64(),
			HarvestedFrac:  0.2 + 0.6*rng.Float64(),
			WebmailFrac:    0.4 + 0.5*rng.Float64(),
		}
		nAff := 1 + rng.Poisson(math.Max(cfg.BotnetAffiliatesMean-1, 0.5))
		if nAff > len(pool) {
			nAff = len(pool)
		}
		for _, k := range rng.SampleInts(len(pool), nAff) {
			b.Affiliates = append(b.Affiliates, pool[k])
		}
		sort.Ints(b.Affiliates)
		w.Botnets = append(w.Botnets, b)
	}
}

// dayDur converts fractional days to a duration.
func dayDur(days float64) time.Duration {
	return time.Duration(days * 24 * float64(time.Hour))
}

// campaignSpan picks a campaign window of the given day range, placed
// so most campaigns fall fully inside the measurement window but some
// straddle its edges (as in any real trace).
func campaignSpan(rng *randutil.RNG, w simclock.Window, minDays, maxDays float64) (time.Time, time.Time) {
	dur := dayDur(minDays + rng.Float64()*(maxDays-minDays))
	span := w.Duration() - dur/2 + dayDur(2)
	start := w.Start.Add(-dayDur(2)).Add(time.Duration(rng.Float64() * float64(span)))
	return start, start.Add(dur)
}

// rotateDomains splits the campaign window across k ad slots with a
// slight overlap between consecutive slots.
func rotateDomains(start, end time.Time, k int) []simclock.Window {
	if k < 1 {
		k = 1
	}
	total := end.Sub(start)
	seg := total / time.Duration(k)
	overlap := seg / 6
	out := make([]simclock.Window, k)
	for i := 0; i < k; i++ {
		s := start.Add(time.Duration(i) * seg)
		e := s.Add(seg + overlap)
		if e.After(end) {
			e = end
		}
		out[i] = simclock.Window{Start: s, End: e}
	}
	return out
}

// addAdDomain creates an ad slot for a campaign, registering fresh
// domains.
func (w *World) addAdDomain(rng *randutil.RNG, names *nameGen, c *Campaign,
	slot simclock.Window, weight float64, aliveProb float64, allowRedirector bool) {
	cfg := &w.Config
	ad := AdDomain{Start: slot.Start, End: slot.End, Weight: weight}
	switch {
	case allowRedirector && len(w.redirectors) > 0 && rng.Bool(cfg.RedirectorAdFrac):
		ad.Redirector = true
		ad.Alive = true
		ad.Name = w.redirectors[rng.Intn(len(w.redirectors))]
		ad.Sym = w.Syms.Intern(string(ad.Name))
	default:
		ad.Landing = rng.Bool(cfg.LandingAdFrac)
		ad.Alive = rng.Bool(aliveProb)
		ad.Name, ad.Sym = names.Spam()
		reg := slot.Start.Add(-dayDur(1 + rng.ExpFloat64()*4))
		var drop time.Time
		if rng.Bool(0.8) {
			drop = slot.End.Add(dayDur(5 + rng.Float64()*55))
		}
		w.register(ad.Sym, reg, drop)
	}
	ad.URLSym = names.AdURL(c, ad)
	c.Domains = append(c.Domains, ad)
}

// campaignCategory returns the goods category a campaign advertises.
func (w *World) campaignCategory(c *Campaign) Category {
	if c.Program < 0 {
		return CategoryOther
	}
	return w.Programs[c.Program].Category
}

// megaCampaigns is how many mega campaigns genCampaigns draws: the
// scaled count, but at least one when any are configured.
func (c *Config) megaCampaigns() int {
	n := c.scaled(c.MegaCampaigns, 0)
	if c.MegaCampaigns > 0 && n == 0 {
		n = 1
	}
	return n
}

// campaignCapacity sizes w.Campaigns so genCampaigns never regrows
// it. The mega, other-goods and web-only counts are exact. The loud,
// quiet and tiny counts are sums of Poisson and Bernoulli draws, whose
// variance is at most their mean, so they are taken at their mean
// plus four standard deviations.
func (w *World) campaignCapacity() int {
	cfg := &w.Config
	var mean float64
	for i := range w.Botnets {
		mean += float64(len(w.Botnets[i].Affiliates)) * cfg.LoudCampaignsPerSlot * cfg.Scale
	}
	for i := range w.Affiliates {
		switch w.Affiliates[i].Tier {
		case TierQuiet:
			mean += cfg.QuietExtraMean*cfg.Scale + cfg.QuietCampaignProb*math.Min(cfg.Scale, 1)
		case TierTiny:
			mean += cfg.TinyCampaignProb * math.Min(cfg.Scale, 1)
		}
	}
	exact := cfg.megaCampaigns() + cfg.scaled(cfg.OtherGoodsCampaigns, 1) + cfg.scaled(cfg.WebOnlyDomains, 1)
	return exact + int(mean+4*math.Sqrt(mean))
}

func (w *World) genCampaigns(rng *randutil.RNG, names *nameGen) {
	cfg := &w.Config
	win := cfg.Window
	w.Campaigns = make([]Campaign, 0, w.campaignCapacity())

	newCampaign := func(affiliate, program int, class CampaignClass, botnet int,
		start, end time.Time, volume float64) *Campaign {
		w.Campaigns = append(w.Campaigns, Campaign{
			ID:        len(w.Campaigns),
			Affiliate: affiliate,
			Program:   program,
			Class:     class,
			Botnet:    botnet,
			Start:     start,
			End:       end,
			Volume:    volume,
		})
		return &w.Campaigns[len(w.Campaigns)-1]
	}

	// --- Loud botnet campaigns for tagged programs. -----------------
	loudRng := rng.SplitNamed("loud")
	for bi := range w.Botnets {
		b := &w.Botnets[bi]
		for _, aff := range b.Affiliates {
			n := loudRng.Poisson(cfg.LoudCampaignsPerSlot * cfg.Scale)
			for j := 0; j < n; j++ {
				start, end := campaignSpan(loudRng, win, 4, 18)
				vol := loudRng.LogNormal(math.Log(cfg.LoudVolumeMedian), cfg.LoudVolumeSigma)
				c := newCampaign(aff, w.Affiliates[aff].Program, ClassLoud, b.ID, start, end, vol)
				k := 1 + loudRng.Poisson(math.Max(cfg.LoudDomainsMean-1, 0.1))
				slots := rotateDomains(start, end, k)
				for _, slot := range slots {
					w.addAdDomain(loudRng, names, c, slot, 1/float64(len(slots)), cfg.LoudAliveProb, true)
				}
			}
		}
	}

	// --- Mega campaigns: months-long continuous blasts. --------------
	megaRng := rng.SplitNamed("mega")
	for i := range cfg.megaCampaigns() {
		// The first mega runs on a monitored (non-poisoner) botnet so
		// the Bot feed covers a slice of the dominant volume; the
		// rest run on unmonitored botnets.
		botnet := 1 % len(w.Botnets)
		if i > 0 && len(w.Botnets) > cfg.MonitoredBotnets {
			botnet = cfg.MonitoredBotnets +
				megaRng.Intn(len(w.Botnets)-cfg.MonitoredBotnets)
		}
		roster := w.Botnets[botnet].Affiliates
		aff := roster[megaRng.Intn(len(roster))]
		dur := dayDur(cfg.MegaMinDays + megaRng.Float64()*(cfg.MegaMaxDays-cfg.MegaMinDays))
		// Megas start early enough to span most of the window.
		lead := time.Duration(megaRng.Float64() * float64(win.Duration()-dur))
		start := win.Start.Add(-dayDur(megaRng.Float64() * 5)).Add(lead)
		end := start.Add(dur)
		vol := cfg.LoudVolumeMedian * cfg.MegaVolumeMultiplier *
			megaRng.LogNormal(0, 0.3)
		c := newCampaign(aff, w.Affiliates[aff].Program, ClassLoud, botnet, start, end, vol)
		k := 1 + megaRng.Poisson(math.Max(cfg.MegaDomainsMean-1, 1))
		slots := rotateDomains(start, end, k)
		// Mega domains persist after rotation: each slot stays active
		// until campaign end, at weight proportional to its span.
		totalWeight := 0.0
		for si := range slots {
			slots[si].End = end
			totalWeight += slots[si].End.Sub(slots[si].Start).Hours()
		}
		for _, slot := range slots {
			weight := slot.End.Sub(slot.Start).Hours() / totalWeight
			w.addAdDomain(megaRng, names, c, slot, weight, 0.97, true)
		}
	}

	// --- Quiet targeted campaigns (tagged programs). ----------------
	quietRng := rng.SplitNamed("quiet")
	quietProb := cfg.QuietCampaignProb * math.Min(cfg.Scale, 1)
	for i := range w.Affiliates {
		if w.Affiliates[i].Tier != TierQuiet {
			continue
		}
		n := quietRng.Poisson(cfg.QuietExtraMean * cfg.Scale)
		if quietRng.Bool(quietProb) {
			n++
		}
		for j := 0; j < n; j++ {
			start, end := campaignSpan(quietRng, win, 2, 10)
			vol := quietRng.LogNormal(math.Log(cfg.QuietVolumeMedian), cfg.QuietVolumeSigma)
			c := newCampaign(i, w.Affiliates[i].Program, ClassQuiet, -1, start, end, vol)
			k := 1 + quietRng.Poisson(0.3)
			for _, slot := range rotateDomains(start, end, k) {
				w.addAdDomain(quietRng, names, c, slot, 1/float64(k), cfg.QuietAliveProb, false)
			}
		}
	}

	// --- Tiny campaigns: most tiny-tier affiliates send something. --
	tinyRng := rng.SplitNamed("tiny")
	for i := range w.Affiliates {
		if w.Affiliates[i].Tier != TierTiny {
			continue
		}
		if !tinyRng.Bool(cfg.TinyCampaignProb * math.Min(cfg.Scale, 1)) {
			continue
		}
		start, end := campaignSpan(tinyRng, win, 1, 5)
		vol := tinyRng.LogNormal(math.Log(cfg.TinyVolumeMedian), cfg.TinyVolumeSigma)
		c := newCampaign(i, w.Affiliates[i].Program, ClassTiny, -1, start, end, vol)
		w.addAdDomain(tinyRng, names, c,
			simclock.Window{Start: start, End: end}, 1, cfg.TinyAliveProb, false)
	}

	// --- Other-goods campaigns (live sites, never tagged). ----------
	otherRng := rng.SplitNamed("other")
	for i := 0; i < cfg.scaled(cfg.OtherGoodsCampaigns, 1); i++ {
		loud := otherRng.Bool(cfg.OtherGoodsLoudFrac)
		botnet := -1
		class := ClassQuiet
		minD, maxD := 1.0, 6.0
		volMedian := cfg.OtherVolumeMedian
		if loud {
			botnet = otherRng.Intn(len(w.Botnets))
			class = ClassLoud
			minD, maxD = 3, 12
			volMedian = cfg.LoudVolumeMedian / 4
		}
		start, end := campaignSpan(otherRng, win, minD, maxD)
		vol := otherRng.LogNormal(math.Log(volMedian), cfg.OtherVolumeSigma)
		c := newCampaign(-1, -1, class, botnet, start, end, vol)
		k := 1 + otherRng.Poisson(0.5)
		for _, slot := range rotateDomains(start, end, k) {
			w.addAdDomain(otherRng, names, c, slot, 1/float64(k), cfg.OtherAliveProb, loud)
		}
	}

	// --- Web-only spam domains (reach only the hybrid feed). --------
	webRng := rng.SplitNamed("webonly")
	for i := 0; i < cfg.scaled(cfg.WebOnlyDomains, 1); i++ {
		start, end := campaignSpan(webRng, win, 1, 30)
		// A small slice of web-spam domains are genuine program
		// storefronts advertised through search spam rather than
		// e-mail; the crawler tags them, and only the hybrid feed
		// ever sees them. Such a storefront is always registered.
		program, affiliate := -1, -1
		if webRng.Bool(cfg.WebOnlyTaggedFrac) && len(w.Affiliates) > 0 {
			affiliate = webRng.Intn(len(w.Affiliates))
			program = w.Affiliates[affiliate].Program
		}
		c := newCampaign(affiliate, program, ClassWebOnly, -1, start, end, 0)
		name, sym := names.Spam()
		registered := webRng.Bool(cfg.WebOnlyRegisteredProb) || program >= 0
		alive := registered && webRng.Bool(cfg.WebOnlyAliveProb)
		if registered {
			w.register(sym, start.Add(-dayDur(1+webRng.ExpFloat64()*10)), time.Time{})
		}
		ad := AdDomain{
			Name: name, Start: start, End: end, Weight: 1, Alive: alive, Sym: sym,
		}
		ad.URLSym = names.AdURL(c, ad)
		c.Domains = append(c.Domains, ad)
	}
}
