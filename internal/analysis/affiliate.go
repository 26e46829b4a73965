package analysis

import (
	"fmt"
	"sort"

	"tasterschoice/internal/symtab"
)

// feedPrograms returns the set of affiliate programs visible in a
// feed's tagged domains, keyed by program id rendered as a string (the
// Matrix machinery is string-set based).
func feedPrograms(ds *Dataset, name string) map[string]bool {
	programs := make(map[int]bool)
	ds.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
		l := ds.Labels.Get(d)
		if l != nil && l.TaggedClean() && l.Program >= 0 {
			programs[l.Program] = true
		}
	})
	out := make(map[string]bool, len(programs))
	for p := range programs {
		out[fmt.Sprintf("p%d", p)] = true //lint:allow stringalloc -- Matrix edge: one key per distinct program
	}
	return out
}

// feedAffiliateKeys returns the RX affiliate identifiers visible in a
// feed's tagged domains.
func feedAffiliateKeys(ds *Dataset, name string) map[string]bool {
	out := make(map[string]bool)
	ds.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
		l := ds.Labels.Get(d)
		if l != nil && l.TaggedClean() && l.AffiliateKey != "" {
			out[l.AffiliateKey] = true
		}
	})
	return out
}

// ProgramCoverage computes Figure 4: the pairwise affiliate-program
// coverage matrix.
func ProgramCoverage(ds *Dataset) *Matrix {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedPrograms(ds, name)
	}
	return NewMatrix(order, sets)
}

// AffiliateCoverage computes Figure 5: the pairwise RX-Promotion
// affiliate-identifier coverage matrix.
func AffiliateCoverage(ds *Dataset) *Matrix {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedAffiliateKeys(ds, name)
	}
	return NewMatrix(order, sets)
}

// RevenueRow is one feed's bar in Figure 6.
type RevenueRow struct {
	Name string
	// Revenue is the summed annual revenue (USD) of the RX affiliates
	// whose identifiers the feed covers.
	Revenue float64
	// Affiliates is the number of RX identifiers covered.
	Affiliates int
}

// RevenueCoverage computes Figure 6: per-feed RX affiliate coverage
// weighted by each affiliate's annual revenue from the leaked-ledger
// stand-in. TotalRevenue is the revenue of all RX affiliates seen in
// any feed.
func RevenueCoverage(ds *Dataset) (rows []RevenueRow, totalRevenue float64) {
	// Build key → revenue from the world's RX roster.
	rx := ds.World.RXProgram()
	revenueOf := make(map[string]float64)
	for i := range ds.World.Affiliates {
		a := &ds.World.Affiliates[i]
		if a.Program == rx.ID && a.Key != "" {
			revenueOf[a.Key] = a.AnnualRevenue
		}
	}
	union := make(map[string]bool)
	for _, name := range ds.Result.Order {
		keys := feedAffiliateKeys(ds, name)
		row := RevenueRow{Name: name, Affiliates: len(keys)}
		// Sum in sorted key order: float addition is not associative,
		// so map-order summation would vary in the last ulp per run.
		for _, k := range sortedKeys(keys) {
			row.Revenue += revenueOf[k]
			union[k] = true
		}
		rows = append(rows, row)
	}
	for _, k := range sortedKeys(union) {
		totalRevenue += revenueOf[k]
	}
	return rows, totalRevenue
}

// sortedKeys returns the set's keys in lexicographic order, the
// canonical iteration order for float accumulation.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
