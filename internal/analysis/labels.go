// Package analysis implements the paper's four feed-quality analyses —
// purity, coverage, proportionality, and timing — plus the affiliate
// program and revenue views, each producing the data behind one of the
// paper's tables or figures.
//
// All analyses operate on a Dataset: the ten collected feeds, the
// incoming-mail oracle, and per-domain labels obtained by crawling
// every feed domain and checking zone files, exactly mirroring the
// paper's methodology (§3.4, §4.1.4):
//
//   - DNS: the domain appeared in a covered TLD zone file within the
//     window bracketing the measurement period.
//   - HTTP: some URL received for the domain answered 200.
//   - Tagged: the final page matched a storefront signature.
//   - live domains: HTTP minus (Alexa ∪ ODP).
//   - tagged domains: Tagged minus (Alexa ∪ ODP).
package analysis

import (
	"runtime"
	"slices"
	"sync"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// Label is the classification of one feed domain.
type Label struct {
	// InZoneTLD reports whether the domain's TLD has zone-file
	// visibility (the DNS indicator's denominator).
	InZoneTLD bool
	// DNS reports zone-file appearance during the bracketed window.
	DNS bool
	// HTTP reports a successful web visit.
	HTTP bool
	// Tagged reports a storefront signature match.
	Tagged bool
	// Program / Affiliate / AffiliateKey / Category describe the tag.
	Program      int
	Affiliate    int
	AffiliateKey string
	Category     ecosystem.Category
	// Alexa / ODP mark the benign-list memberships.
	Alexa, ODP bool
}

// Benignish reports Alexa-or-ODP membership (the paper's conservative
// exclusion set).
func (l *Label) Benignish() bool { return l.Alexa || l.ODP }

// Live implements the paper's "live domain" definition.
func (l *Label) Live() bool { return l.HTTP && !l.Benignish() }

// TaggedClean implements the paper's post-§4.1.4 "tagged domain"
// definition (tagged minus Alexa/ODP).
func (l *Label) TaggedClean() bool { return l.Tagged && !l.Benignish() }

// Labels maps every domain occurring in any feed to its label, keyed by
// the domain's symbol ID in the world's table (the table every feed is
// bound to). Labels live in one contiguous slice; pos is a dense
// symbol-indexed slice holding each labeled symbol's row plus one.
type Labels struct {
	pos  []int32
	rows []Label
	// syms[i] is the domain symbol of rows[i].
	syms []symtab.ID
}

// Get returns the label for the domain symbol d (nil if d was in no
// feed).
func (ls *Labels) Get(d symtab.ID) *Label {
	if int(d) < len(ls.pos) {
		if i := ls.pos[d]; i != 0 {
			return &ls.rows[i-1]
		}
	}
	return nil
}

// Len returns the number of labeled domains.
func (ls *Labels) Len() int { return len(ls.rows) }

// Dataset bundles everything the analyses consume. It is treated as
// immutable once built; the analyses lazily attach an interned-domain
// Index (see index.go) that the parallel table computations share.
type Dataset struct {
	World  *ecosystem.World
	Result *mailflow.Result
	Labels *Labels

	idxOnce sync.Once
	idx     *Index
}

// Feed returns the named feed.
func (ds *Dataset) Feed(name string) *feeds.Feed { return ds.Result.Feed(name) }

// name returns the domain name of symbol d, for the report edge.
func (ds *Dataset) name(d symtab.ID) string { return ds.World.Syms.Lookup(d) }

// BuildLabels crawls and zone-checks every domain occurring in any
// feed, using one crawler worker per CPU. For each domain it visits
// the sample URLs the feeds received (URL feeds preserve redirection
// context); domain-only feeds contribute a bare "http://domain/"
// visit, as in the paper.
func BuildLabels(w *ecosystem.World, res *mailflow.Result) *Labels {
	return BuildLabelsConcurrent(w, res, runtime.GOMAXPROCS(0))
}

// BuildLabelsConcurrent is BuildLabels with an explicit worker count.
// The result is identical for any worker count: each domain's label is
// computed independently.
func BuildLabelsConcurrent(w *ecosystem.World, res *mailflow.Result, workers int) *Labels {
	return BuildLabelsWith(w, res, workers, func() webcrawl.Visitor {
		return webcrawl.New(w)
	})
}

// BuildLabelsWith labels using caller-provided crawler instances — one
// per worker — so the crawl can run over the in-process simulator or a
// real-HTTP webhost crawler interchangeably. Every feed must be bound
// to the world's symbol table, as the collection engine binds them.
func BuildLabelsWith(w *ecosystem.World, res *mailflow.Result, workers int,
	newVisitor func() webcrawl.Visitor) *Labels {
	if workers < 1 {
		workers = 1
	}
	zoneWindow := zoneCheckWindow(w)
	fs := make([]*feeds.Feed, len(res.Order))
	for i, name := range res.Order {
		fs[i] = res.Feed(name)
	}
	if i := slices.IndexFunc(fs, func(f *feeds.Feed) bool { return f.Syms() != w.Syms }); i >= 0 {
		panic("analysis: feed " + res.Order[i] + " is not bound to the world's symbol table")
	}
	ls := &Labels{pos: make([]int32, w.Syms.Len())}

	// Collect the union of feed domains in deterministic (feed-order,
	// then insertion-order) sequence. Sample URLs are not materialized
	// here: labelOne pulls them per domain straight from the feeds, so
	// no per-domain URL slices are built up front.
	for _, f := range fs {
		f.EachIDUnordered(func(d symtab.ID, _ int64) {
			if ls.pos[d] == 0 {
				ls.syms = append(ls.syms, d)
				ls.pos[d] = int32(len(ls.syms))
			}
		})
	}
	ls.rows = make([]Label, len(ls.syms))
	for i := range ls.rows {
		ls.rows[i].Program = -1
		ls.rows[i].Affiliate = -1
	}

	if workers > len(ls.rows) {
		workers = len(ls.rows)
	}
	// Shard the domains across workers; every label is written only
	// by its own worker, so no locking is needed.
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			crawler := newVisitor()
			for i := shard; i < len(ls.rows); i += workers {
				labelOne(w, crawler, zoneWindow, ls.syms[i], fs, &ls.rows[i])
			}
		}(wk)
	}
	wg.Wait()
	return ls
}

// labelOne fills in one domain's label. Every lookup is by d's symbol
// ID: a feed records each URL under the URL's registered domain, and
// every feed domain is its own registered domain
// (TestCrawlRestsOnFeedDomains), so no URL needs parsing. It gathers
// the distinct sample URLs the feeds saw for d in canonical feed order
// (URL feeds preserve redirection context) into a stack buffer; a
// domain no feed attached a URL to gets the paper's bare
// "http://domain/" visit.
func labelOne(w *ecosystem.World, crawler webcrawl.Visitor,
	zoneWindow simclock.Window, d symtab.ID, fs []*feeds.Feed, label *Label) {
	label.InZoneTLD = w.Registry.CoversTLD(domain.Name(w.Syms.Lookup(d)).TLD())
	if label.InZoneTLD {
		label.DNS = w.Registry.AppearedDuring(d, zoneWindow)
	}
	if info, ok := w.InfoID(d); ok {
		label.Alexa = info.Alexa
		label.ODP = info.ODP
	}
	// The table interns each string once, so distinct URLs have
	// distinct IDs, and ID 0 is the empty (absent) URL.
	var urlBuf [16]symtab.ID
	urls := urlBuf[:0]
	for _, f := range fs {
		u, _ := f.SampleURLID(d)
		if u != 0 && !slices.Contains(urls, u) {
			urls = append(urls, u)
		}
	}
	visit := func(u string) {
		r := crawler.Visit(d, u)
		if r.OK {
			label.HTTP = true
		}
		if r.Tagged && !label.Tagged {
			label.Tagged = true
			label.Program = r.Program
			label.Affiliate = r.Affiliate
			label.AffiliateKey = r.AffiliateKey
			label.Category = r.Category
		}
	}
	if len(urls) == 0 {
		visit("")
	}
	for _, u := range urls {
		visit(w.Syms.Lookup(u))
	}
}

// zoneCheckWindow brackets the measurement window by 16 months on each
// side, as the paper's zone-file checks do.
func zoneCheckWindow(w *ecosystem.World) simclock.Window {
	return w.Config.Window.Extend(487, 487)
}

// NewDataset labels a collection run and bundles it for analysis.
func NewDataset(w *ecosystem.World, res *mailflow.Result) *Dataset {
	return &Dataset{World: w, Result: res, Labels: BuildLabels(w, res)}
}
