package analysis

import (
	"sort"
	"time"

	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// Campaign reconstruction: the paper notes that "the relationship
// between a campaign and the domains it uses can be complex: a domain
// may be used in multiple campaigns, and a campaign may continuously
// cycle through several domains" (§4.2.3). This extension asks how well
// a researcher could recover campaign structure from a single feed:
// cluster the feed's tagged domains by program and overlapping activity
// windows, then score the clustering against the generator's ground
// truth with pairwise precision/recall.

// Reconstruction scores one feed's inferred campaign clustering.
type Reconstruction struct {
	Feed string
	// Domains is how many tagged domains entered the clustering.
	Domains int
	// Clusters is the number of inferred campaigns; TrueCampaigns the
	// number of distinct ground-truth campaigns among those domains.
	Clusters      int
	TrueCampaigns int
	// PairPrecision is the fraction of same-cluster domain pairs that
	// truly share a campaign; PairRecall the fraction of true
	// same-campaign pairs the clustering reunites.
	PairPrecision float64
	PairRecall    float64
}

// ReconstructCampaigns clusters feedName's tagged domains and scores
// the result. slack widens each domain's observed activity window
// before testing overlap (rotation gaps hide in report latency).
func ReconstructCampaigns(ds *Dataset, feedName string, slack time.Duration) Reconstruction {
	type item struct {
		d           string
		program     int
		campaign    int
		first, last time.Time
		cluster     int
	}
	feed := ds.Feed(feedName)
	var items []item
	feed.EachIDUnordered(func(d symtab.ID, _ int64) {
		l := ds.Labels.Get(d)
		if !ClassTagged.member(l) {
			return
		}
		info, ok := ds.World.InfoID(d)
		if !ok || info.Campaign < 0 {
			return
		}
		s, _ := feed.StatID(d)
		items = append(items, item{
			d: ds.name(d), program: l.Program, campaign: info.Campaign,
			first: s.First.Add(-slack), last: s.Last.Add(slack),
		})
	})
	rec := Reconstruction{Feed: feedName, Domains: len(items)}
	if len(items) == 0 {
		return rec
	}
	// Cluster: within each program, chain domains whose widened
	// activity windows overlap.
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

	// Pairwise precision/recall.
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

// ReconstructAll scores every feed with the given slack.
func ReconstructAll(ds *Dataset, slack time.Duration) []Reconstruction {
	out := make([]Reconstruction, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		out = append(out, ReconstructCampaigns(ds, name, slack))
	}
	return out
}
