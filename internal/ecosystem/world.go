package ecosystem

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tasterschoice/internal/dnszone"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// DomainKind classifies what a domain actually is, ground truth the
// crawler discovers (or fails to).
type DomainKind uint8

const (
	// KindUnknown is a domain the world knows nothing about — poison
	// output and junk reports resolve to this.
	KindUnknown DomainKind = iota
	// KindStorefront is a registered domain hosting a program
	// storefront (or unbranded goods site for other-goods spam).
	KindStorefront
	// KindLanding is a registered throwaway domain redirecting to a
	// storefront.
	KindLanding
	// KindWebOnly is a domain advertised via web/search spam only.
	KindWebOnly
	// KindBenign is a legitimate domain.
	KindBenign
	// KindObscure is a registered but unpopular legitimate domain,
	// the kind random name generation occasionally collides with.
	KindObscure
)

// String returns the kind name.
func (k DomainKind) String() string {
	switch k {
	case KindStorefront:
		return "storefront"
	case KindLanding:
		return "landing"
	case KindWebOnly:
		return "webonly"
	case KindBenign:
		return "benign"
	case KindObscure:
		return "obscure"
	default:
		return "unknown"
	}
}

// DomainInfo is the world's ground truth about one domain.
type DomainInfo struct {
	Kind      DomainKind
	Campaign  int // Campaign.ID, -1 if none
	Program   int // Program.ID, -1 if none
	Affiliate int // Affiliate.ID, -1 if none
	Category  Category
	// Alive reports whether an HTTP fetch during the measurement
	// period succeeds.
	Alive bool
	// Registered reports whether the domain was ever registered.
	Registered bool
	// Alexa, ODP and Redirector mirror the benign-universe flags.
	Alexa, ODP, Redirector bool
	// BenignRank is the popularity rank for benign domains, -1
	// otherwise.
	BenignRank int
}

// World is a fully generated spam ecosystem.
type World struct {
	Config     Config
	Programs   []Program
	Affiliates []Affiliate
	Botnets    []Botnet
	Campaigns  []Campaign
	Benign     []BenignDomain
	// Obscure is the pool of registered-but-unpopular domains poison
	// names can collide with.
	Obscure []domain.Name
	// ObscureSyms holds the interned IDs of Obscure, index-aligned.
	ObscureSyms []symtab.ID
	// Registry records all domain registrations for zone-file checks.
	Registry *dnszone.Registry

	// Syms is the world's shared symbol table: Generate interns every
	// generated domain as it is minted, followed by its URL (AutoURL
	// for a benign domain, AdURL for an ad slot), and the collection
	// engine threads the IDs end-to-end so per-message code never
	// re-hashes a string. Engines then intern their synthesized
	// junk/poison names into it on one goroutine, in a fixed order,
	// keeping ID assignment deterministic for every worker count.
	Syms *symtab.Table

	// info is the ground truth of every generated domain, indexed by
	// its symbol ID and sized to the symbols Generate interned. Kind is
	// KindUnknown at every other ID (URLs). Generate writes it; readers
	// take no lock.
	info        []DomainInfo
	redirectors []domain.Name
	// pending logs the registrations Generate draws until the symbol
	// count, and so the registry's size, is final; nil afterwards.
	pending regLog
}

// registration is one zone-file entry Generate draws: domain d entered
// its zone at from and, unless to is zero, left it at to.
type registration struct {
	d        symtab.ID
	from, to time.Time
}

// regLog holds registrations in fixed-size chunks, so it grows without
// copying what it already holds.
type regLog [][]registration

const regChunk = 4096

func (l *regLog) add(r registration) {
	if n := len(*l); n == 0 || len((*l)[n-1]) == regChunk {
		*l = append(*l, make([]registration, 0, regChunk))
	}
	last := &(*l)[len(*l)-1]
	*last = append(*last, r)
}

// InfoID returns ground truth for the domain with symbol ID d. ok is
// false for names the world has never heard of (poison output, junk,
// and every name interned after Generate).
func (w *World) InfoID(d symtab.ID) (*DomainInfo, bool) {
	if int(d) < len(w.info) && w.info[d].Kind != KindUnknown {
		return &w.info[d], true
	}
	return nil, false
}

// Info returns ground truth for a domain given by name, for names that
// arrive from outside the pipeline (the HTTP server's requests); code
// holding a symbol ID calls InfoID.
func (w *World) Info(d domain.Name) (*DomainInfo, bool) {
	id, ok := w.Syms.Find(string(d))
	if !ok {
		return nil, false
	}
	return w.InfoID(id)
}

// Redirectors returns the benign domains offering redirection services.
func (w *World) Redirectors() []domain.Name { return w.redirectors }

// RXProgram returns the RX-Promotion-like program.
func (w *World) RXProgram() *Program {
	for i := range w.Programs {
		if w.Programs[i].RX {
			return &w.Programs[i]
		}
	}
	return nil
}

// PoisonWindow returns the period during which the poisoner botnet
// sends random unregistered domains.
func (w *World) PoisonWindow() simclock.Window {
	return simclock.Window{
		Start: w.Config.Window.Day(w.Config.PoisonStartDay),
		End:   w.Config.Window.Day(w.Config.PoisonEndDay),
	}
}

// Poisoner returns the poisoning botnet, or nil if none.
func (w *World) Poisoner() *Botnet {
	for i := range w.Botnets {
		if w.Botnets[i].Poisoner {
			return &w.Botnets[i]
		}
	}
	return nil
}

// TaggedUniverse returns the number of domains whose crawl would yield
// a storefront tag (alive, tagged category, not benign) — a generation
// sanity metric used by tests.
func (w *World) TaggedUniverse() int {
	n := 0
	for i := range w.info {
		info := &w.info[i]
		if info.Alive && info.Category.Tagged() && info.Program >= 0 &&
			(info.Kind == KindStorefront || info.Kind == KindLanding) {
			n++
		}
	}
	return n
}

// AdURL builds the spam-advertised URL for an ad slot of a campaign.
// The path carries the campaign id so the crawler can resolve
// redirections the way real crawlers follow HTTP redirects.
func AdURL(c *Campaign, d AdDomain) string {
	return string(appendAdURL(nil, c, d))
}

// appendAdURL appends AdURL(c, d) to b.
func appendAdURL(b []byte, c *Campaign, d AdDomain) []byte {
	b = append(append(b, "http://"...), d.Name...)
	if d.Redirector {
		b = append(b, "/r/c"...)
	} else {
		b = append(b, "/p/c"...)
	}
	return strconv.AppendInt(b, int64(c.ID), 10)
}

// ChaffURL builds a URL on a benign domain as embedded by spammers to
// dilute filters (image hosting, DTD references, phished brands).
func ChaffURL(d domain.Name) string {
	return fmt.Sprintf("http://%s/", d)
}

// DecodeCampaignToken extracts a campaign id from an ad URL path. ok is
// false if the URL carries no campaign token.
func DecodeCampaignToken(rawURL string) (id int, redirect bool, ok bool) {
	path := rawURL
	if i := strings.Index(path, "://"); i >= 0 {
		path = path[i+3:]
	}
	slash := strings.IndexByte(path, '/')
	if slash < 0 {
		return 0, false, false
	}
	path = path[slash:]
	var prefix string
	switch {
	case strings.HasPrefix(path, "/r/c"):
		prefix, redirect = "/r/c", true
	case strings.HasPrefix(path, "/p/c"):
		prefix = "/p/c"
	default:
		return 0, false, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(path, prefix))
	if err != nil || n < 0 {
		return 0, false, false
	}
	return n, redirect, true
}
