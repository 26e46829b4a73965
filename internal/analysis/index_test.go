package analysis

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tasterschoice/internal/dnszone"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// syntheticFeeds builds n domains in ten feeds bound to one symbol
// table, as the collection engine binds them. Domain i goes to feed
// i%10, and every third domain to the next feed too, so the class
// views see overlap. Names are interned in reverse order, so symbol,
// label-row and name order all differ.
func syntheticFeeds(n int) (*symtab.Table, *mailflow.Result) {
	tab := symtab.New()
	syms := make([]symtab.ID, n)
	for i := n - 1; i >= 0; i-- {
		syms[i] = tab.Intern(fmt.Sprintf("d%07d.example", (i*7919)%n))
	}
	res := &mailflow.Result{Feeds: make(map[string]*feeds.Feed)}
	fs := make([]*feeds.Feed, 10)
	for i := range fs {
		name := fmt.Sprintf("f%d", i)
		fs[i] = feeds.New(name, feeds.KindMXHoneypot, true, false)
		fs[i].Bind(tab)
		res.Feeds[name] = fs[i]
		res.Order = append(res.Order, name)
	}
	at := time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i, d := range syms {
		fs[i%len(fs)].ObserveID(at, d, 0)
		if i%3 == 0 {
			fs[(i+1)%len(fs)].ObserveID(at, d, 0)
		}
	}
	return tab, res
}

// syntheticDataset builds a dataset of n labeled domains without a
// world or a crawl: syntheticFeeds' feeds, and labels collected in
// BuildLabels' feed-then-insertion order.
func syntheticDataset(n int) *Dataset {
	tab, res := syntheticFeeds(n)
	ls := &Labels{pos: make([]int32, tab.Len())}
	for _, name := range res.Order {
		res.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
			if ls.pos[d] == 0 {
				ls.syms = append(ls.syms, d)
				ls.pos[d] = int32(len(ls.syms))
			}
		})
	}
	ls.rows = make([]Label, len(ls.syms))
	for i := range ls.rows {
		ls.rows[i] = Label{HTTP: i%2 == 0, Tagged: i%4 == 0, Alexa: i%11 == 0, Program: -1, Affiliate: -1}
	}
	return &Dataset{World: &ecosystem.World{Syms: tab}, Result: res, Labels: ls}
}

// TestIndexScalesLinearly holds the heap bytes that building the index
// and its three class views allocates per labeled domain within 2×
// from n to 8n domains: a build that sorted names into fresh strings,
// or kept a per-domain map, would show here first.
func TestIndexScalesLinearly(t *testing.T) {
	perDomain := func(n int) float64 {
		ds := syntheticDataset(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix := ds.Index()
		for _, c := range []DomainClass{ClassAll, ClassLive, ClassTagged} {
			ix.class(c)
		}
		runtime.ReadMemStats(&after)
		if got := ix.class(ClassAll).unionSize; got != n {
			t.Fatalf("ClassAll union = %d over %d labeled domains", got, n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const n = 16_384
	small, large := perDomain(n), perDomain(8*n)
	t.Logf("heap bytes per labeled domain: %.1f at %d domains, %.1f at %d", small, n, large, 8*n)
	if large > 2*small {
		t.Fatalf("the index allocates %.0f B per domain at %d domains but %.0f B at %d",
			small, n, large, 8*n)
	}
}

// rootVisitor is a crawler stub: every domain's root answers, and no
// page is tagged.
type rootVisitor struct{}

func (rootVisitor) Visit(d symtab.ID, rawURL string) webcrawl.Result {
	return webcrawl.Result{URL: rawURL, OK: true}
}

// TestBuildLabelsScalesLinearly holds the heap bytes that BuildLabels
// allocates per labeled domain within 2× from n to 8n domains, over
// syntheticFeeds with a crawler stub and an empty zone registry: a
// union list or position table copied per new domain, or a crawl
// that kept per-domain garbage, would show here first.
func TestBuildLabelsScalesLinearly(t *testing.T) {
	perDomain := func(n int) float64 {
		tab, res := syntheticFeeds(n)
		w := &ecosystem.World{Syms: tab, Registry: dnszone.NewPaperRegistry(tab.Len())}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ls := BuildLabelsWith(w, res, 2, func() webcrawl.Visitor { return rootVisitor{} })
		runtime.ReadMemStats(&after)
		if ls.Len() != n {
			t.Fatalf("%d labels over %d feed domains", ls.Len(), n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const n = 16_384
	small, large := perDomain(n), perDomain(8*n)
	t.Logf("heap bytes per labeled domain: %.1f at %d domains, %.1f at %d", small, n, large, 8*n)
	if large > 2*small {
		t.Fatalf("BuildLabels allocates %.0f B per domain at %d domains but %.0f B at %d",
			small, n, large, 8*n)
	}
}
