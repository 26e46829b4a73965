package analysis

import (
	"sort"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/stats"
)

// This file pins the original single-threaded map-based table
// computations. They are the reference implementations: the golden
// determinism tests assert the indexed/parallel paths produce
// identical rows. Keep them dumb and sequential — their value is
// being obviously correct and stable while the fast paths evolve.

// labelOf is the reference label lookup: by name, through the symbol
// table's Find.
func labelOf(ds *Dataset, d domain.Name) *Label {
	id, ok := ds.World.Syms.Find(string(d))
	if !ok {
		return nil
	}
	return ds.Labels.Get(id)
}

// feedDomainsSerial returns the feed's domains restricted to the class,
// as a set of plain strings built by the sorted Each walk: the
// reference set builder.
func feedDomainsSerial(ds *Dataset, name string, class DomainClass) map[string]bool {
	out := make(map[string]bool)
	ds.Feed(name).Each(func(d domain.Name, _ feeds.DomainStat) {
		if class.member(labelOf(ds, d)) {
			out[string(d)] = true
		}
	})
	return out
}

// CoverageSerial computes Table 3 exactly as Coverage, one feed at a
// time over plain map sets.
func CoverageSerial(ds *Dataset, class DomainClass) []CoverageRow {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedDomainsSerial(ds, name, class)
	}
	occurrences := make(map[string]int)
	for _, set := range sets {
		for d := range set {
			occurrences[d]++
		}
	}
	out := make([]CoverageRow, len(order))
	for i, name := range order {
		row := CoverageRow{Name: name, Total: len(sets[i])}
		for d := range sets[i] {
			if occurrences[d] == 1 {
				row.Exclusive++
			}
		}
		out[i] = row
	}
	return out
}

// IntersectionsSerial computes Figure 2 exactly as Intersections, via
// pairwise map walks.
func IntersectionsSerial(ds *Dataset, class DomainClass) *Matrix {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedDomainsSerial(ds, name, class)
	}
	return newMatrixSerial(order, sets)
}

// newMatrixSerial is NewMatrix without the per-row worker fan-out.
func newMatrixSerial(names []string, sets []map[string]bool) *Matrix {
	n := len(names)
	union := make(map[string]bool)
	for _, s := range sets {
		for d := range s {
			union[d] = true
		}
	}
	m := &Matrix{
		Names:     append([]string(nil), names...),
		Count:     make([][]int, n),
		Frac:      make([][]float64, n),
		SetSizes:  make([]int, n),
		UnionSize: len(union),
	}
	for i := range sets {
		m.SetSizes[i] = len(sets[i])
	}
	for i := 0; i < n; i++ {
		m.Count[i] = make([]int, n+1)
		m.Frac[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			small, large := sets[i], sets[j]
			if len(small) > len(large) {
				small, large = large, small
			}
			c := 0
			for d := range small {
				if large[d] {
					c++
				}
			}
			m.Count[i][j] = c
			m.Frac[i][j] = stats.Fraction(c, len(sets[j]))
		}
		m.Count[i][n] = len(sets[i])
		m.Frac[i][n] = stats.Fraction(len(sets[i]), len(union))
	}
	return m
}

// PuritySerial computes Table 2 exactly as Purity, one feed at a time.
func PuritySerial(ds *Dataset) []PurityRow {
	out := make([]PurityRow, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		out = append(out, purityRow(ds, name))
	}
	return out
}

// purityRow computes one feed's Table 2 row the original way — a
// sorted walk with per-domain label lookups — for the serial
// reference.
func purityRow(ds *Dataset, name string) PurityRow {
	f := ds.Feed(name)
	var covered, dns, http, tagged, odp, alexa, total int
	f.Each(func(d domain.Name, _ feeds.DomainStat) {
		l := labelOf(ds, d)
		if l == nil {
			return
		}
		total++
		if l.InZoneTLD {
			covered++
			if l.DNS {
				dns++
			}
		}
		if l.HTTP {
			http++
		}
		if l.Tagged {
			tagged++
		}
		if l.ODP {
			odp++
		}
		if l.Alexa {
			alexa++
		}
	})
	return PurityRow{
		Name:    name,
		DNS:     stats.Fraction(dns, covered),
		Covered: stats.Fraction(covered, total),
		HTTP:    stats.Fraction(http, total),
		Tagged:  stats.Fraction(tagged, total),
		ODP:     stats.Fraction(odp, total),
		Alexa:   stats.Fraction(alexa, total),
	}
}

// GreedySelectionSerial computes the greedy acquisition order exactly
// as GreedySelection, over plain string sets: each round rescans every
// remaining feed's set against the covered set.
func GreedySelectionSerial(ds *Dataset, class DomainClass) []SelectionStep {
	order := ds.Result.Order
	sets := make(map[string]map[string]bool, len(order))
	union := make(map[string]bool)
	for _, name := range order {
		s := feedDomainsSerial(ds, name, class)
		sets[name] = s
		for d := range s {
			union[d] = true
		}
	}
	covered := make(map[string]bool)
	remaining := append([]string(nil), order...)
	steps := make([]SelectionStep, 0, len(order))
	for len(remaining) > 0 {
		bestIdx, bestGain := 0, -1
		for i, name := range remaining {
			gain := 0
			for d := range sets[name] {
				if !covered[d] {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		name := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for d := range sets[name] {
			covered[d] = true
		}
		frac := 0.0
		if len(union) > 0 {
			frac = float64(len(covered)) / float64(len(union))
		}
		steps = append(steps, SelectionStep{
			Feed:           name,
			Marginal:       bestGain,
			Cumulative:     len(covered),
			CumulativeFrac: frac,
		})
	}
	return steps
}

// ReconstructCampaignsSerial computes one feed's Reconstruction exactly
// as ReconstructCampaigns, scoring the clustering by visiting every
// domain pair.
func ReconstructCampaignsSerial(ds *Dataset, feedName string, slack time.Duration) Reconstruction {
	type item struct {
		d           string
		program     int
		campaign    int
		first, last time.Time
		cluster     int
	}
	feed := ds.Feed(feedName)
	var items []item
	feed.Each(func(d domain.Name, s feeds.DomainStat) {
		l := labelOf(ds, d)
		if !ClassTagged.member(l) {
			return
		}
		info, ok := ds.World.Info(d)
		if !ok || info.Campaign < 0 {
			return
		}
		items = append(items, item{
			d: string(d), program: l.Program, campaign: info.Campaign,
			first: s.First.Add(-slack), last: s.Last.Add(slack),
		})
	})
	rec := Reconstruction{Feed: feedName, Domains: len(items)}
	if len(items) == 0 {
		return rec
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].program != items[j].program {
			return items[i].program < items[j].program
		}
		if !items[i].first.Equal(items[j].first) {
			return items[i].first.Before(items[j].first)
		}
		return items[i].d < items[j].d
	})
	cluster := -1
	var curProgram int
	var curEnd time.Time
	for i := range items {
		it := &items[i]
		if cluster < 0 || it.program != curProgram || it.first.After(curEnd) {
			cluster++
			curProgram = it.program
			curEnd = it.last
		} else if it.last.After(curEnd) {
			curEnd = it.last
		}
		it.cluster = cluster
	}
	rec.Clusters = cluster + 1
	trueSeen := map[int]bool{}
	for _, it := range items {
		trueSeen[it.campaign] = true
	}
	rec.TrueCampaigns = len(trueSeen)
	var sameBoth, sameCluster, sameTruth int
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			sc := items[i].cluster == items[j].cluster
			st := items[i].campaign == items[j].campaign
			if sc {
				sameCluster++
			}
			if st {
				sameTruth++
			}
			if sc && st {
				sameBoth++
			}
		}
	}
	rec.PairPrecision = stats.Fraction(sameBoth, sameCluster)
	rec.PairRecall = stats.Fraction(sameBoth, sameTruth)
	return rec
}

// proportionInputsSerial is proportionInputs without the per-input
// worker fan-out.
func proportionInputsSerial(ds *Dataset) ([]string, []stats.Dist) {
	names := append([]string{MailColumn}, VolumeFeeds(ds)...)
	dists := []stats.Dist{mailTaggedDist(ds)}
	for _, name := range names[1:] {
		dists = append(dists, feedTaggedDist(ds, name))
	}
	return names, dists
}

// pairwiseSerial fills the full n×n matrix of metric over the
// proportionality inputs, every ordered pair computed on its own.
func pairwiseSerial(ds *Dataset, metric func(p, q stats.Dist) (float64, bool)) *PairwiseDist {
	names, dists := proportionInputsSerial(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	for i := 0; i < n; i++ {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			out.Value[i][j], out.OK[i][j] = metric(dists[i], dists[j])
		}
	}
	return out
}

// VariationDistancesSerial computes Figure 7 exactly as
// VariationDistances, over all n×n ordered pairs.
func VariationDistancesSerial(ds *Dataset) *PairwiseDist {
	return pairwiseSerial(ds, func(p, q stats.Dist) (float64, bool) {
		return stats.VariationDistance(p, q), true
	})
}

// KendallTausSerial computes Figure 8 exactly as KendallTaus, over all
// n×n ordered pairs.
func KendallTausSerial(ds *Dataset) *PairwiseDist {
	return pairwiseSerial(ds, func(p, q stats.Dist) (float64, bool) {
		tau, _, ok := stats.KendallTauB(p, q)
		return tau, ok
	})
}
