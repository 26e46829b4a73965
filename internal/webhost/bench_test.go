package webhost

import (
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// BenchmarkHTTPVisit measures a full crawl round trip: TCP connect (or
// keep-alive reuse), request, storefront-page render, body parse.
func BenchmarkHTTPVisit(b *testing.B) {
	cfg := ecosystem.DefaultConfig(31)
	cfg.Scale = 0.05
	cfg.BenignDomains = 500
	cfg.AlexaTopN = 200
	cfg.ODPDomains = 100
	cfg.ObscureRegistered = 50
	cfg.WebOnlyDomains = 50
	cfg.OtherGoodsCampaigns = 80
	cfg.RXAffiliates = 40
	cfg.RXLoudAffiliates = 4
	w := ecosystem.MustGenerate(cfg)
	srv := NewServer(w)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cr := NewCrawler(w, srv, addr.String())
	type visit struct {
		d   symtab.ID
		url string
	}
	var visits []visit
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		for _, d := range c.Domains {
			if d.Alive {
				visits = append(visits, visit{d.Sym, ecosystem.AdURL(c, d)})
			}
		}
	}
	if len(visits) == 0 {
		b.Fatal("no live URLs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := visits[i%len(visits)]
		_ = cr.Visit(v.d, v.url)
	}
}
