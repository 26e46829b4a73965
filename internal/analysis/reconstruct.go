package analysis

import (
	"cmp"
	"slices"
	"strings"
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
	// item is one tagged domain: its widened activity window in Unix
	// nanoseconds, its program and true campaign, and its label row,
	// whose name is read only to break a tie.
	type item struct {
		first, last       int64
		program, campaign int32
		id                int32
	}
	feed := ds.Feed(feedName)
	tagged := ds.Index().class(ClassTagged).feed[slices.Index(ds.Result.Order, feedName)]
	items := make([]item, 0, tagged.Count())
	for _, id := range appendIDs(nil, tagged) {
		d := ds.Labels.syms[id]
		info, ok := ds.World.InfoID(d)
		if !ok || info.Campaign < 0 {
			continue
		}
		s, _ := feed.StatID(d)
		items = append(items, item{
			first: s.First.UnixNano() - int64(slack), last: s.Last.UnixNano() + int64(slack),
			program: int32(ds.Labels.rows[id].Program), campaign: int32(info.Campaign), id: id,
		})
	}
	rec := Reconstruction{Feed: feedName, Domains: len(items)}
	if len(items) == 0 {
		return rec
	}
	// Cluster: within each program, chain domains whose widened
	// activity windows overlap.
	slices.SortFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.program, b.program); c != 0 {
			return c
		}
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		return strings.Compare(ds.name(ds.Labels.syms[a.id]), ds.name(ds.Labels.syms[b.id]))
	})
	ms := make([]member, len(items))
	cluster := -1
	var curProgram int32
	var curEnd int64
	for i, it := range items {
		if cluster < 0 || it.program != curProgram || it.first > curEnd {
			cluster++
			curProgram = it.program
			curEnd = it.last
		} else if it.last > curEnd {
			curEnd = it.last
		}
		ms[i] = member{cluster: cluster, campaign: int(it.campaign)}
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
