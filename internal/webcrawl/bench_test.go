package webcrawl

import (
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

func BenchmarkVisit(b *testing.B) {
	cfg := ecosystem.DefaultConfig(5)
	cfg.Scale = 0.05
	cfg.BenignDomains = 1000
	cfg.AlexaTopN = 400
	cfg.ODPDomains = 200
	cfg.ObscureRegistered = 100
	cfg.WebOnlyDomains = 100
	cfg.OtherGoodsCampaigns = 100
	cfg.RXAffiliates = 50
	cfg.RXLoudAffiliates = 4
	w := ecosystem.MustGenerate(cfg)
	cr := New(w)
	type visit struct {
		d   symtab.ID
		url string
	}
	var visits []visit
	for i := range w.Campaigns {
		c := &w.Campaigns[i]
		for _, d := range c.Domains {
			visits = append(visits, visit{d.Sym, ecosystem.AdURL(c, d)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := visits[i%len(visits)]
		_ = cr.Visit(v.d, v.url)
	}
}
