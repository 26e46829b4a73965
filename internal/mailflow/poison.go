package mailflow

import (
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/symtab"
)

// poisonTLDs is the TLD mix of generated poison names; keeping them in
// zone-covered TLDs makes them count against the DNS purity indicator
// exactly as the Rustock junk did.
var poisonTLDs = []string{"com", "com", "com", "net", "info"}

// PoisonSource generates the Rustock-style random domain stream seen at
// one collection point. With probability fresh it mints a brand-new
// random name; otherwise it re-uses one of the most recent names,
// modeling how many poison messages repeat a domain before rotating.
// A small fraction of "fresh" names collide with genuinely registered
// obscure domains.
//
// Names are held as interned symbol IDs; NextID is allocation-free
// (minting reuses one scratch buffer and InternBytes).
type PoisonSource struct {
	rng     *randutil.RNG
	fresh   float64
	liveHit float64
	syms    *symtab.Table
	obscure []symtab.ID
	recent  []symtab.ID
	next    int
	buf     []byte
}

// newPoisonSourceSyms builds a source interning into a shared table —
// the engine wires it to the world's table so feed observations can use
// the IDs directly. obscure is the pool of real registered domains
// random names can collide with (may be empty).
func newPoisonSourceSyms(rng *randutil.RNG, fresh, liveHit float64,
	tab *symtab.Table, obscure []symtab.ID) *PoisonSource {
	return &PoisonSource{
		rng:     rng,
		fresh:   fresh,
		liveHit: liveHit,
		syms:    tab,
		obscure: obscure,
		recent:  make([]symtab.ID, 0, 512),
	}
}

// NextID returns the interned ID of the next message's poison domain.
func (p *PoisonSource) NextID() symtab.ID {
	if len(p.recent) == 0 || p.rng.Bool(p.fresh) {
		d := p.mint()
		p.remember(d)
		return d
	}
	return p.recent[p.rng.Intn(len(p.recent))]
}

func (p *PoisonSource) mint() symtab.ID {
	if len(p.obscure) > 0 && p.rng.Bool(p.liveHit) {
		return p.obscure[p.rng.Intn(len(p.obscure))]
	}
	n := 7 + p.rng.Intn(8)
	p.buf = p.rng.AppendAlphaNum(p.buf[:0], n)
	p.buf = append(p.buf, '.')
	p.buf = append(p.buf, poisonTLDs[p.rng.Intn(len(poisonTLDs))]...)
	return p.syms.InternBytes(p.buf)
}

// remember keeps a bounded ring of recent names for re-use.
func (p *PoisonSource) remember(d symtab.ID) {
	if len(p.recent) < cap(p.recent) {
		p.recent = append(p.recent, d)
		return
	}
	p.recent[p.next] = d
	p.next = (p.next + 1) % len(p.recent)
}
