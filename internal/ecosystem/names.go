package ecosystem

import (
	"fmt"
	"strconv"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/symtab"
)

// Word lists used to synthesize plausible domain and program names.
// Purely cosmetic, but keeping generated names realistic exercises the
// same parsing paths real feed data would.
var (
	spamWordsA = []string{
		"cheap", "best", "super", "mega", "quick", "easy", "top", "fast",
		"prime", "gold", "vip", "pro", "ultra", "star", "great", "real",
		"true", "fresh", "smart", "happy", "lucky", "royal", "grand",
		"secure", "direct", "global", "instant", "magic", "power", "elite",
	}
	spamWordsB = []string{
		"pills", "meds", "pharm", "rx", "drugs", "tabs", "health", "cure",
		"watches", "replica", "bags", "luxury", "brands", "soft", "oem",
		"apps", "deals", "shop", "store", "market", "sale", "offers",
		"goods", "mall", "outlet", "boutique", "supply", "depot", "express",
	}
	benignWords = []string{
		"news", "blog", "mail", "search", "photo", "video", "music",
		"travel", "bank", "weather", "sports", "games", "forum", "wiki",
		"social", "cloud", "code", "docs", "maps", "books", "movies",
		"recipes", "garden", "auto", "craft", "school", "science", "art",
		"city", "home", "work", "life", "tech", "media", "press", "daily",
	}
	programAdjectives = []string{
		"Canadian", "Euro", "Global", "Royal", "Swiss", "Pacific", "Prime",
		"United", "Diamond", "Golden", "Silver", "Atlantic", "Eastern",
		"Northern", "Imperial", "Classic", "Modern", "Alpha", "Omega",
	}
	programNouns = map[Category][]string{
		CategoryPharma:   {"Pharmacy", "Health", "Meds", "RX Partners", "Drugstore", "Pills Network", "Care", "Remedy"},
		CategoryReplica:  {"Replica House", "Watch Works", "Luxury Line", "Timepieces", "Boutique Club", "Leather Co"},
		CategorySoftware: {"Soft Sales", "OEM Store", "License Depot", "Software Hub", "App Vault"},
	}
	spamTLDs        = []string{"com", "net", "org", "info", "biz", "ru", "cn", "in"}
	spamTLDWeights  = []float64{0.56, 0.10, 0.07, 0.08, 0.03, 0.09, 0.04, 0.03}
	benignTLDs      = []string{"com", "org", "net", "edu", "gov", "co.uk", "de", "fr"}
	benignTLDWeight = []float64{0.55, 0.15, 0.12, 0.05, 0.02, 0.05, 0.03, 0.03}
)

// nameGen produces unique domain names of various flavors. It tests
// uniqueness by interning into the world's symbol table: a name is
// new exactly when interning it grew the table. No generated name
// contains "://", so none can collide with an interned URL. Names and
// ad URLs are built in one reused buffer and interned as bytes, so a
// colliding draw allocates nothing and every name shares the table's
// string.
type nameGen struct {
	rng       *randutil.RNG
	spamTLD   *randutil.WeightedChoice
	benignTLD *randutil.WeightedChoice
	syms      *symtab.Table
	buf       []byte
}

func newNameGen(rng *randutil.RNG, syms *symtab.Table) *nameGen {
	return &nameGen{
		rng:       rng,
		spamTLD:   randutil.NewWeightedChoice(rng.SplitNamed("spamtld"), spamTLDWeights),
		benignTLD: randutil.NewWeightedChoice(rng.SplitNamed("benigntld"), benignTLDWeight),
		syms:      syms,
	}
}

// unique retries gen, which appends a candidate name to its argument,
// until it produces an unused name, and returns the name with its
// freshly assigned symbol ID.
func (g *nameGen) unique(gen func(b []byte) []byte) (domain.Name, symtab.ID) {
	for i := 0; ; i++ {
		g.buf = gen(g.buf[:0])
		n := g.syms.Len()
		if id := g.syms.InternBytes(g.buf); g.syms.Len() > n {
			return domain.Name(g.syms.Lookup(id)), id
		}
		if i > 10000 {
			panic("ecosystem: name space exhausted")
		}
	}
}

// Spam returns a fresh spammy-looking registered domain and its symbol
// ID: word+word+optional digits over a spam-weighted TLD mix.
func (g *nameGen) Spam() (domain.Name, symtab.ID) {
	return g.unique(func(b []byte) []byte {
		b = append(b, spamWordsA[g.rng.Intn(len(spamWordsA))]...)
		b = append(b, spamWordsB[g.rng.Intn(len(spamWordsB))]...)
		if g.rng.Bool(0.65) {
			b = strconv.AppendInt(b, int64(g.rng.Intn(1000)), 10)
		}
		return append(append(b, '.'), spamTLDs[g.spamTLD.Pick()]...)
	})
}

// Benign returns a fresh legitimate-looking domain and its symbol ID.
func (g *nameGen) Benign() (domain.Name, symtab.ID) {
	return g.unique(func(b []byte) []byte {
		a := benignWords[g.rng.Intn(len(benignWords))]
		c := benignWords[g.rng.Intn(len(benignWords))]
		b = append(b, a...)
		if g.rng.Bool(0.3) {
			b = append(b, '-')
		}
		b = append(b, c...)
		if g.rng.Bool(0.25) {
			b = strconv.AppendInt(b, int64(g.rng.Intn(100)), 10)
		}
		return append(append(b, '.'), benignTLDs[g.benignTLD.Pick()]...)
	})
}

// Obscure returns a fresh random-string registered domain — the kind a
// random generator can collide with — and its symbol ID.
func (g *nameGen) Obscure() (domain.Name, symtab.ID) {
	return g.unique(func(b []byte) []byte {
		return append(g.rng.AppendAlphaNum(b, 6+g.rng.Intn(6)), ".com"...)
	})
}

// AdURL interns the advertised URL of an ad slot (AdURL) and returns
// its symbol ID.
func (g *nameGen) AdURL(c *Campaign, d AdDomain) symtab.ID {
	g.buf = appendAdURL(g.buf[:0], c, d)
	return g.syms.InternBytes(g.buf)
}

// programName synthesizes an affiliate program name.
func programName(rng *randutil.RNG, cat Category, idx int) string {
	nouns := programNouns[cat]
	adj := programAdjectives[rng.Intn(len(programAdjectives))]
	noun := nouns[rng.Intn(len(nouns))]
	return fmt.Sprintf("%s %s #%d", adj, noun, idx)
}

// botnetNames are flavor names for the simulated botnets; the first is
// the Rustock-like poisoner.
var botnetNames = []string{
	"rustwork", "megadrive", "stormline", "cutwheel", "grumbot",
	"lethovic", "bagelnet", "xarvester", "donbot", "festeron",
	"waledoc", "bobaxen", "kelihorse", "ozdocker", "spamthru",
	"srizbee", "ghegnet", "maazben", "asprox", "darkmail",
	"nucrypt", "wopla", "chegern", "tofsee", "slenfbot",
	"vulcanbot", "firebird", "hydranet", "coldriver", "nightowl",
}
