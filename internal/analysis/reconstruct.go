package analysis

import (
	"slices"
	"sort"
	"time"

	"tasterschoice/internal/stats"
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
// before testing overlap (rotation gaps hide in report latency). It
// walks the feed's bitset in the tagged class view (see Index) and
// counts pairs from group sizes; ReconstructCampaignsSerial is the
// pinned pair-by-pair reference.
func ReconstructCampaigns(ds *Dataset, feedName string, slack time.Duration) Reconstruction {
	type item struct {
		d           string
		program     int
		campaign    int
		first, last time.Time
	}
	feed := ds.Feed(feedName)
	tagged := ds.Index().class(ClassTagged).feed[slices.Index(ds.Result.Order, feedName)]
	var items []item
	for _, id := range appendIDs(nil, tagged) {
		d := ds.Labels.syms[id]
		info, ok := ds.World.InfoID(d)
		if !ok || info.Campaign < 0 {
			continue
		}
		s, _ := feed.StatID(d)
		items = append(items, item{
			d: ds.name(d), program: ds.Labels.rows[id].Program, campaign: info.Campaign,
			first: s.First.Add(-slack), last: s.Last.Add(slack),
		})
	}
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
	ms := make([]member, len(items))
	cluster := -1
	var curProgram int
	var curEnd time.Time
	for i, it := range items {
		if cluster < 0 || it.program != curProgram || it.first.After(curEnd) {
			cluster++
			curProgram = it.program
			curEnd = it.last
		} else if it.last.After(curEnd) {
			curEnd = it.last
		}
		ms[i] = member{cluster: cluster, campaign: it.campaign}
	}
	rec.Clusters = cluster + 1

	// Pairwise precision/recall.
	sameCluster, sameTruth, sameBoth, campaigns := pairCounts(ms)
	rec.TrueCampaigns = campaigns
	rec.PairPrecision = stats.Fraction(sameBoth, sameCluster)
	rec.PairRecall = stats.Fraction(sameBoth, sameTruth)
	return rec
}

// member is one clustered domain: its inferred cluster and its true
// campaign.
type member struct{ cluster, campaign int }

// pairCounts counts the unordered pairs of ms that share a cluster,
// share a campaign, and share both, and the distinct campaigns. Each
// member pairs with the members of its groups seen before it, so a
// group of n sums to n(n−1)/2 pairs without visiting any pair.
func pairCounts(ms []member) (sameCluster, sameCampaign, sameBoth, campaigns int) {
	clusters, camps := make(map[int]int, len(ms)), make(map[int]int, len(ms))
	both := make(map[member]int, len(ms))
	for _, m := range ms {
		sameCluster += clusters[m.cluster]
		sameCampaign += camps[m.campaign]
		sameBoth += both[m]
		clusters[m.cluster]++
		camps[m.campaign]++
		both[m]++
	}
	return sameCluster, sameCampaign, sameBoth, len(camps)
}

// ReconstructAll scores every feed with the given slack.
func ReconstructAll(ds *Dataset, slack time.Duration) []Reconstruction {
	out := make([]Reconstruction, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		out = append(out, ReconstructCampaigns(ds, name, slack))
	}
	return out
}
