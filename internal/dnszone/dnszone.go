// Package dnszone simulates TLD registries and their zone files.
//
// The paper's DNS purity indicator checks whether a feed domain appeared
// in the zone files of seven major TLDs (com, net, org, biz, us, aero,
// info) over a window bracketing the measurement period by 16 months on
// each side. This package provides the registry abstraction backing that
// check: domains are registered (and possibly dropped) at points in
// simulated time, and queries ask whether a domain was present in a zone
// at an instant or at any point during a window.
//
// Domains are keyed by their symbol IDs in the world's table, the
// identity every feed row already carries, so a query hashes no string.
package dnszone

import (
	"math"
	"time"

	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// PaperZoneTLDs are the TLDs whose zone files the paper checked.
var PaperZoneTLDs = []string{"com", "net", "org", "biz", "us", "aero", "info"}

// open is the end of a registration that is still active.
const open = math.MaxInt64

// interval is a half-open registration interval [from, to) in Unix
// nanoseconds; to is open while the domain is still registered. The
// zero interval is empty: the domain was never registered.
type interval struct {
	from, to int64
}

// Registry is a collection of TLD zones with each domain's registration
// interval, indexed by the domain's symbol ID. Its size is fixed when
// it is made; Register and Drop are for the code that builds it (world
// generation), and queries take no lock, so a built registry is safe
// for any number of concurrent readers. IDs at or beyond its size are
// names that were never registered, such as poison output.
type Registry struct {
	covered map[string]bool // TLDs with zone-file visibility; never written after NewRegistry
	zone    []interval
}

// NewRegistry creates a registry of n symbol IDs with zone-file
// visibility into the given TLDs. Registrations in other TLDs are
// recorded but invisible to zone queries (CoversTLD reports false),
// mirroring the paper's partial TLD coverage.
func NewRegistry(coveredTLDs []string, n int) *Registry {
	r := &Registry{
		covered: make(map[string]bool, len(coveredTLDs)),
		zone:    make([]interval, n),
	}
	for _, tld := range coveredTLDs {
		r.covered[tld] = true
	}
	return r
}

// NewPaperRegistry returns a registry of n symbol IDs covering the
// paper's seven TLDs.
func NewPaperRegistry(n int) *Registry {
	return NewRegistry(PaperZoneTLDs, n)
}

// CoversTLD reports whether the registry has zone-file visibility into
// the given TLD.
func (r *Registry) CoversTLD(tld string) bool { return r.covered[tld] }

// Register records that domain d entered its zone at time t. A domain
// has one registration: registering it again is a no-op.
func (r *Registry) Register(d symtab.ID, t time.Time) {
	if iv := &r.zone[d]; iv.from >= iv.to {
		*iv = interval{from: t.UnixNano(), to: open}
	}
}

// Drop records that domain d left its zone at time t (expiry or
// takedown). Dropping a domain that is not active at t is a no-op.
func (r *Registry) Drop(d symtab.ID, t time.Time) {
	if iv := &r.zone[d]; iv.to == open && iv.from <= t.UnixNano() {
		iv.to = t.UnixNano()
	}
}

// at returns d's registration interval, empty for an ID the registry
// does not hold.
func (r *Registry) at(d symtab.ID) interval {
	if int(d) < len(r.zone) {
		return r.zone[d]
	}
	return interval{}
}

// ActiveAt reports whether domain d was in its zone file at instant t.
func (r *Registry) ActiveAt(d symtab.ID, t time.Time) bool {
	iv, n := r.at(d), t.UnixNano()
	return iv.from <= n && n < iv.to
}

// AppearedDuring reports whether domain d appeared in its zone file at
// any point during the window — the paper's registration test.
func (r *Registry) AppearedDuring(d symtab.ID, w simclock.Window) bool {
	iv := r.at(d)
	return iv.from < iv.to && iv.from < w.End.UnixNano() && iv.to > w.Start.UnixNano()
}
