package webhost

import (
	"runtime"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// TestHTTPLabeledDatasetMatchesSimulated is the heavyweight
// cross-validation: label an entire collection run twice — once with
// the in-process crawler, once over real HTTP against the webhost
// server — and require identical labels for every domain. The paper's
// Table 2/3 numbers are therefore derivable from the wire.
func TestHTTPLabeledDatasetMatchesSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP labeling pass is slow; skipped with -short")
	}
	cfg := ecosystem.DefaultConfig(2025)
	cfg.Scale = 0.06
	cfg.RXAffiliates = 60
	cfg.RXLoudAffiliates = 5
	cfg.BenignDomains = 900
	cfg.AlexaTopN = 350
	cfg.ODPDomains = 180
	cfg.ObscureRegistered = 120
	cfg.WebOnlyDomains = 200
	cfg.OtherGoodsCampaigns = 200
	world := ecosystem.MustGenerate(cfg)

	mcfg := mailflow.DefaultConfig(2026)
	mcfg.PoisonBotArrivals = 4000
	mcfg.PoisonMX2Arrivals = 3500
	mcfg.HuJunkReports = 80
	mcfg.HoneypotJunkPerDay = 0.1
	mcfg.DBL.JunkBenign = 4
	mcfg.URIBL.JunkBenign = 2
	res, err := mailflow.New(world, mcfg).Run()
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(world)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	simulated := analysis.BuildLabels(world, res)
	overHTTP := analysis.BuildLabelsWith(world, res, runtime.GOMAXPROCS(0),
		func() webcrawl.Visitor { return NewCrawler(world, srv, addr.String()) })

	if simulated.Len() != overHTTP.Len() {
		t.Fatalf("label counts differ: %d vs %d", simulated.Len(), overHTTP.Len())
	}
	mismatches := 0
	seen := make(map[symtab.ID]bool)
	for _, name := range res.Order {
		res.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
			if seen[d] {
				return
			}
			seen[d] = true
			a := simulated.Get(d)
			b := overHTTP.Get(d)
			if a.HTTP != b.HTTP || a.Tagged != b.Tagged ||
				a.Program != b.Program || a.AffiliateKey != b.AffiliateKey ||
				a.DNS != b.DNS || a.Alexa != b.Alexa || a.ODP != b.ODP {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("label mismatch for %s:\n  sim:  %+v\n  http: %+v",
						world.Syms.Lookup(d), a, b)
				}
			}
		})
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d labels differ", mismatches, simulated.Len())
	}
	if srv.Requests() == 0 {
		t.Fatal("HTTP pass issued no requests")
	}
	t.Logf("validated %d domains over %d HTTP requests", simulated.Len(), srv.Requests())
}
