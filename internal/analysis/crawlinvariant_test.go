package analysis_test

import (
	"fmt"
	"testing"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
	"tasterschoice/internal/symtab"
)

// TestCrawlRestsOnFeedDomains pins what labeling's crawl assumes in
// place of parsing URLs. The crawl reads a domain's ground truth by the
// symbol ID its feed row carries, so every sample URL a feed holds for
// a domain must have that domain as its registered domain, and every
// feed domain must be its own registered domain, so that its bare root
// "http://<domain>/" lands on it. The small scenario always runs;
// default-scale seeds 1, 2 and 2010 run outside -short.
func TestCrawlRestsOnFeedDomains(t *testing.T) {
	scenarios := []simulate.Scenario{simulate.Small(2010)}
	if !testing.Short() {
		for _, seed := range []uint64{1, 2, 2010} {
			scenarios = append(scenarios, simulate.Default(seed))
		}
	}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("%s-%d", sc.Name, sc.Ecosystem.Seed), func(t *testing.T) {
			world := ecosystem.MustGenerate(sc.Ecosystem)
			res, err := mailflow.New(world, sc.Collection).Run()
			if err != nil {
				t.Fatal(err)
			}
			syms := world.Syms
			seen := make([]bool, syms.Len())
			pairs := make(map[[2]symtab.ID]bool)
			mismatches := 0
			mismatch := func(format string, args ...any) {
				if mismatches++; mismatches <= 5 {
					t.Errorf(format, args...)
				}
			}
			for _, name := range res.Order {
				f := res.Feed(name)
				f.EachIDUnordered(func(d symtab.ID, _ int64) {
					want := syms.Lookup(d)
					if !seen[d] {
						seen[d] = true
						if got, err := domain.DefaultRules.FromURL("http://" + want + "/"); err != nil || string(got) != want {
							mismatch("feed domain %q reduces to %q (%v)", want, got, err)
						}
					}
					u, _ := f.SampleURLID(d)
					if u == 0 || pairs[[2]symtab.ID{d, u}] {
						return
					}
					pairs[[2]symtab.ID{d, u}] = true
					if got, err := domain.DefaultRules.FromURL(syms.Lookup(u)); err != nil || string(got) != want {
						mismatch("%s holds %q under %q; its registered domain is %q (%v)",
							name, syms.Lookup(u), want, got, err)
					}
				})
			}
			domains := 0
			for _, s := range seen {
				if s {
					domains++
				}
			}
			t.Logf("%d mismatches over %d (domain, sample URL) pairs and %d domains", mismatches, len(pairs), domains)
			if mismatches > 0 {
				t.Fatalf("%d feed rows break the crawl's domain-by-ID assumption", mismatches)
			}
		})
	}
}
