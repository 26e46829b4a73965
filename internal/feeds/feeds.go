// Package feeds defines the spam-feed data model used throughout the
// reproduction: a feed is a named stream of (time, domain[, URL])
// observations, aggregated per registered domain.
//
// Feeds differ in reporting semantics exactly as in the paper: some
// carry meaningful per-domain volumes, blacklists are binary (a domain
// is listed once), some report full URLs while others only registered
// domains. Collection methodology — who sees which spam — lives in
// internal/mailflow; this package only records observations.
//
// Storage is columnar: each feed keeps one flat row per registered
// domain, keyed by interned symbol IDs (internal/symtab) with a dense
// ID→row index, so the per-message hot path (ObserveID) touches no
// strings, no maps and no per-domain heap objects. The string-based
// API is preserved on top: it interns through the feed's table, which
// is either shared (Bind, the engine wires every feed to the world's
// table) or lazily owned.
package feeds

import (
	"fmt"
	"sort"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/symtab"
)

// Kind is a feed's collection methodology, per the paper's taxonomy.
type Kind uint8

const (
	// KindHuman is human-identified spam from a large webmail
	// provider ("this is spam" reports).
	KindHuman Kind = iota
	// KindBlacklist is an operational domain blacklist (meta-feed).
	KindBlacklist
	// KindMXHoneypot accepts all SMTP to quiescent domains.
	KindMXHoneypot
	// KindHoneyAccount is seeded honey e-mail accounts.
	KindHoneyAccount
	// KindBotnet is spam captured from monitored bot instances.
	KindBotnet
	// KindHybrid is a feed of unknown, mixed methodology.
	KindHybrid
)

// String returns the kind name as used in the paper.
func (k Kind) String() string {
	switch k {
	case KindHuman:
		return "Human identified"
	case KindBlacklist:
		return "Blacklist"
	case KindMXHoneypot:
		return "MX honeypot"
	case KindHoneyAccount:
		return "Seeded honey accounts"
	case KindBotnet:
		return "Botnet"
	case KindHybrid:
		return "Hybrid"
	default:
		return "Unknown"
	}
}

// DomainStat aggregates a feed's observations of one registered domain.
type DomainStat struct {
	// Count is the number of samples naming the domain.
	Count int64
	// First and Last are the earliest and latest observation times.
	First, Last time.Time
	// SampleURL is one URL observed for the domain ("" for
	// domain-only feeds); the crawler visits it, as the paper visits
	// received URLs.
	SampleURL string
}

// row is the columnar per-domain aggregate: symbol IDs for the domain
// and sample URL, packed UnixNano timestamps.
type row struct {
	d, url      symtab.ID
	count       int64
	first, last int64
}

// stat reconstructs the public aggregate from a row.
func (f *Feed) stat(r *row) DomainStat {
	return DomainStat{
		Count:     r.count,
		First:     time.Unix(0, r.first).UTC(),
		Last:      time.Unix(0, r.last).UTC(),
		SampleURL: f.syms.Lookup(r.url),
	}
}

// Feed is an aggregated spam-domain feed.
type Feed struct {
	// Name is the feed mnemonic ("Hu", "mx1", "uribl", ...).
	Name string
	// Kind is the collection methodology.
	Kind Kind
	// HasVolume reports whether per-domain counts carry meaning; the
	// paper's proportionality analysis uses only such feeds.
	HasVolume bool
	// URLs reports whether the feed reports full URLs (true) or bare
	// registered domains (false).
	URLs bool
	// DedupWindow, when positive, makes the provider de-duplicate
	// identically advertised domains: an observation of a domain
	// within the window after its previous record is dropped (paper
	// §2 — "some providers will de-duplicate identically advertised
	// domains within a given time window"). Deduplicated feeds are
	// unsuitable for volume analysis.
	DedupWindow time.Duration
	// Tap, when set, receives every recorded observation as a raw
	// record — the hook a provider uses to publish its subscription
	// stream (see internal/feedsync) while aggregating locally.
	// Deduplicated observations are not tapped: the provider reports
	// nothing new for them.
	Tap func(RawRecord)

	samples int64
	// deduped counts observations dropped by the dedup window.
	deduped int64

	syms *symtab.Table
	rows []row
	// idx maps symbol ID to row index + 1; 0 means absent.
	idx []int32
}

// New creates an empty feed with its own private symbol table.
func New(name string, kind Kind, hasVolume, urls bool) *Feed {
	return &Feed{
		Name:      name,
		Kind:      kind,
		HasVolume: hasVolume,
		URLs:      urls,
		syms:      symtab.New(),
	}
}

// Bind attaches the feed to a shared symbol table so ObserveID callers
// and the feed agree on ID assignment. It must be called before any
// observation is recorded; the engine binds every feed to the world's
// table.
func (f *Feed) Bind(tab *symtab.Table) {
	if tab == f.syms {
		return
	}
	if len(f.rows) != 0 {
		panic("feeds: Bind after observations were recorded")
	}
	f.syms = tab
}

// Syms returns the feed's symbol table.
func (f *Feed) Syms() *symtab.Table { return f.syms }

// rowOf returns the row for id, or nil.
func (f *Feed) rowOf(id symtab.ID) *row {
	if int(id) >= len(f.idx) {
		return nil
	}
	ri := f.idx[id]
	if ri == 0 {
		return nil
	}
	return &f.rows[ri-1]
}

// addRow appends a fresh row for id and indexes it.
func (f *Feed) addRow(r row) {
	f.rows = append(f.rows, r)
	if n := int(r.d) + 1; n > len(f.idx) {
		if n <= cap(f.idx) {
			f.idx = f.idx[:n]
		} else {
			grown := make([]int32, n, n+n/2)
			copy(grown, f.idx)
			f.idx = grown
		}
	}
	f.idx[r.d] = int32(len(f.rows))
}

// Observe records one sample naming d at time t, optionally with the
// URL it was advertised by. URLs are retained only for URL-reporting
// feeds and only the first seen per domain. Observations suppressed by
// the dedup window still extend the domain's Last timestamp (the
// provider saw the mail; it just reported nothing new).
func (f *Feed) Observe(t time.Time, d domain.Name, url string) {
	id := f.syms.Intern(string(d))
	var uid symtab.ID
	if f.URLs && url != "" && f.rowOf(id) == nil {
		uid = f.syms.Intern(url)
	}
	f.ObserveID(t.UnixNano(), id, uid)
}

// ObserveID is the hot-path form of Observe: the caller supplies
// pre-interned symbol IDs and a packed UnixNano timestamp, and the
// record touches no strings (unless Tap is set, which reconstructs
// them). url is ignored for domain-only feeds and after the first
// sighting of d.
func (f *Feed) ObserveID(tNanos int64, d, url symtab.ID) {
	s := f.rowOf(d)
	if s == nil {
		f.samples++
		r := row{d: d, count: 1, first: tNanos, last: tNanos}
		if f.URLs {
			r.url = url
		}
		f.addRow(r)
		f.tapID(tNanos, d, url)
		return
	}
	if f.DedupWindow > 0 && tNanos >= s.last && tNanos-s.last < int64(f.DedupWindow) {
		f.deduped++
		s.last = tNanos
		return
	}
	f.samples++
	s.count++
	if tNanos < s.first {
		s.first = tNanos
	}
	if tNanos > s.last {
		s.last = tNanos
	}
	f.tapID(tNanos, d, url)
}

// tapID forwards one recorded observation to the subscription hook.
func (f *Feed) tapID(tNanos int64, d, url symtab.ID) {
	if f.Tap == nil {
		return
	}
	if !f.URLs {
		url = 0
	}
	f.Tap(RawRecord{
		Time:   time.Unix(0, tNanos).UTC(),
		Domain: f.syms.Lookup(d),
		URL:    f.syms.Lookup(url),
	})
}

// ObserveOnce records d in blacklist fashion: only the first listing is
// kept, with Count pinned to 1 (a domain either is on the list at time
// t or it is not).
func (f *Feed) ObserveOnce(t time.Time, d domain.Name) {
	f.ObserveOnceID(t.UnixNano(), f.syms.Intern(string(d)))
}

// ObserveOnceID is the hot-path form of ObserveOnce.
func (f *Feed) ObserveOnceID(tNanos int64, d symtab.ID) {
	if s := f.rowOf(d); s != nil {
		if tNanos < s.first {
			s.first = tNanos
			s.last = tNanos
		}
		return
	}
	f.samples++
	f.addRow(row{d: d, count: 1, first: tNanos, last: tNanos})
	f.tapID(tNanos, d, 0)
}

// Samples returns the total number of recorded samples (the paper's
// "Domains" column in Table 1).
func (f *Feed) Samples() int64 { return f.samples }

// Deduped returns the number of observations suppressed by the dedup
// window.
func (f *Feed) Deduped() int64 { return f.deduped }

// Unique returns the number of distinct registered domains.
func (f *Feed) Unique() int { return len(f.rows) }

// Stat returns the aggregate for d.
func (f *Feed) Stat(d domain.Name) (DomainStat, bool) {
	id, ok := f.syms.Find(string(d))
	if !ok {
		return DomainStat{}, false
	}
	return f.StatID(id)
}

// StatID returns the aggregate for an interned domain ID.
func (f *Feed) StatID(d symtab.ID) (DomainStat, bool) {
	s := f.rowOf(d)
	if s == nil {
		return DomainStat{}, false
	}
	return f.stat(s), true
}

// SampleURLID returns the interned sample-URL ID for d (0 when absent
// or for domain-only feeds).
func (f *Feed) SampleURLID(d symtab.ID) (symtab.ID, bool) {
	s := f.rowOf(d)
	if s == nil {
		return 0, false
	}
	return s.url, true
}

// Has reports whether the feed contains d.
func (f *Feed) Has(d domain.Name) bool {
	id, ok := f.syms.Find(string(d))
	return ok && f.rowOf(id) != nil
}

// HasID reports whether the feed contains the interned domain ID.
func (f *Feed) HasID(d symtab.ID) bool { return f.rowOf(d) != nil }

// Domains returns the feed's distinct domains in sorted order.
func (f *Feed) Domains() []domain.Name {
	out := make([]domain.Name, 0, len(f.rows))
	for i := range f.rows {
		out = append(out, domain.Name(f.syms.Lookup(f.rows[i].d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DomainSet returns the feed's domains as a set keyed by plain string.
func (f *Feed) DomainSet() map[string]bool {
	out := make(map[string]bool, len(f.rows))
	for i := range f.rows {
		out[f.syms.Lookup(f.rows[i].d)] = true
	}
	return out
}

// Counts returns per-domain sample counts keyed by plain string, the
// input to empirical volume distributions.
func (f *Feed) Counts() map[string]int64 {
	out := make(map[string]int64, len(f.rows))
	for i := range f.rows {
		out[f.syms.Lookup(f.rows[i].d)] = f.rows[i].count
	}
	return out
}

// sortedRows returns row indices ordered by domain name.
func (f *Feed) sortedRows() []int32 {
	order := make([]int32, len(f.rows))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return f.syms.Lookup(f.rows[order[i]].d) < f.syms.Lookup(f.rows[order[j]].d)
	})
	return order
}

// Each calls fn for every domain in sorted order.
func (f *Feed) Each(fn func(d domain.Name, s DomainStat)) {
	for _, ri := range f.sortedRows() {
		r := &f.rows[ri]
		fn(domain.Name(f.syms.Lookup(r.d)), f.stat(r))
	}
}

// EachUnordered calls fn for every domain in unspecified order. Hot
// paths that aggregate order-independent values (sets, sums, min/max)
// use it to skip Each's per-call sort.
func (f *Feed) EachUnordered(fn func(d domain.Name, s DomainStat)) {
	for i := range f.rows {
		r := &f.rows[i]
		fn(domain.Name(f.syms.Lookup(r.d)), f.stat(r))
	}
}

// EachIDUnordered calls fn for every row without materializing strings
// or times; order is unspecified.
func (f *Feed) EachIDUnordered(fn func(d symtab.ID, count int64)) {
	for i := range f.rows {
		fn(f.rows[i].d, f.rows[i].count)
	}
}

// RetainID drops every domain for which keep returns false, returning
// the number removed; keep receives interned IDs. The paper applies
// this to blacklist feeds, keeping only entries that co-occur in a
// base feed (blacklist-only domains could not be crawled).
func (f *Feed) RetainID(keep func(d symtab.ID) bool) int {
	kept := f.rows[:0]
	removed := 0
	for i := range f.rows {
		r := f.rows[i]
		if keep(r.d) {
			kept = append(kept, r)
			f.idx[r.d] = int32(len(kept))
		} else {
			f.samples -= r.count
			f.idx[r.d] = 0
			removed++
		}
	}
	f.rows = kept
	return removed
}

// String summarizes the feed.
func (f *Feed) String() string {
	return fmt.Sprintf("%s[%s]: %d samples, %d unique domains",
		f.Name, f.Kind, f.samples, f.Unique())
}

// Union builds the aggregate super-feed the paper uses as its working
// ideal ("we combine all of our feeds into one aggregate super-feed,
// taking it as our ideal", §4): per domain, counts sum and the
// first/last appearances span all inputs. Volume semantics survive only
// if every input has them; URL reporting survives if any input has it.
func Union(name string, inputs ...*Feed) *Feed {
	hasVolume := len(inputs) > 0
	urls := false
	shared := true
	for _, f := range inputs {
		hasVolume = hasVolume && f.HasVolume
		urls = urls || f.URLs
		shared = shared && f.syms == inputs[0].syms
	}
	out := New(name, KindHybrid, hasVolume, urls)
	if shared && len(inputs) > 0 {
		out.syms = inputs[0].syms
	}
	for _, f := range inputs {
		for i := range f.rows {
			s := &f.rows[i]
			d, u := s.d, s.url
			if out.syms != f.syms {
				d = out.syms.Intern(f.syms.Lookup(s.d))
				u = out.syms.Intern(f.syms.Lookup(s.url))
			}
			t := out.rowOf(d)
			if t == nil {
				copied := row{d: d, count: s.count, first: s.first, last: s.last}
				if out.URLs {
					copied.url = u
				}
				out.addRow(copied)
				out.samples += s.count
				continue
			}
			t.count += s.count
			out.samples += s.count
			if s.first < t.first {
				t.first = s.first
			}
			if s.last > t.last {
				t.last = s.last
			}
			if t.url == 0 && out.URLs {
				t.url = u
			}
		}
	}
	return out
}
