package analysis

import (
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// VolumeFeeds returns the feeds whose per-domain counts carry volume
// information, in canonical order — the only feeds admissible to the
// proportionality analysis (the paper excludes Hu, Hyb and both
// blacklists here).
func VolumeFeeds(ds *Dataset) []string {
	var out []string
	for _, name := range ds.Result.Order {
		if ds.Feed(name).HasVolume {
			out = append(out, name)
		}
	}
	return out
}

// MailColumn is the label used for the incoming-mail oracle's column in
// the proportionality matrices.
const MailColumn = "Mail"

// feedTaggedDist returns a feed's empirical volume distribution over
// its tagged domains.
func feedTaggedDist(ds *Dataset, name string) stats.Dist {
	counts := make(map[string]int64)
	ds.Feed(name).EachIDUnordered(func(d symtab.ID, c int64) {
		if ClassTagged.member(ds.Labels.Get(d)) {
			counts[ds.name(d)] = c
		}
	})
	return stats.NewDistFromCounts(counts)
}

// mailTaggedDist returns the incoming-mail oracle's volume distribution
// over the tagged domains appearing in at least one feed: the paper's
// "Mail" column sets the probability of any domain outside the union
// of feeds to zero.
func mailTaggedDist(ds *Dataset) stats.Dist {
	counts := make(map[string]int64)
	for _, d := range ds.Labels.syms {
		if ClassTagged.member(ds.Labels.Get(d)) {
			if c := ds.Result.Oracle.VolumeID(d); c > 0 {
				counts[ds.name(d)] = c
			}
		}
	}
	return stats.NewDistFromCounts(counts)
}

// PairwiseDist holds a symmetric pairwise comparison over the volume
// feeds plus the Mail oracle column.
type PairwiseDist struct {
	// Names lists the compared feeds, Mail first (matching the
	// paper's Figures 7 and 8 layout).
	Names []string
	// Value[i][j] is the metric between feeds i and j; NaN-free: OK
	// reports whether the pair was comparable (Kendall needs >= 2
	// common domains).
	Value [][]float64
	OK    [][]bool
}

// VariationDistances computes Figure 7: pairwise variation distance of
// tagged-domain volume distributions, including the Mail oracle.
func VariationDistances(ds *Dataset) *PairwiseDist {
	names, dists := proportionInputs(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	parallel.ForEach(0, n, func(i int) {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			out.Value[i][j] = stats.VariationDistance(dists[i], dists[j])
			out.OK[i][j] = true
		}
	})
	return out
}

// KendallTaus computes Figure 8: pairwise Kendall rank correlation
// (tau-b) of tagged-domain volumes, including the Mail oracle.
func KendallTaus(ds *Dataset) *PairwiseDist {
	names, dists := proportionInputs(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	parallel.ForEach(0, n, func(i int) {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			tau, _, ok := stats.KendallTauB(dists[i], dists[j])
			out.Value[i][j] = tau
			out.OK[i][j] = ok
		}
	})
	return out
}

// proportionInputs assembles the Mail oracle distribution plus each
// volume feed's tagged distribution, one input per worker.
func proportionInputs(ds *Dataset) ([]string, []stats.Dist) {
	names := append([]string{MailColumn}, VolumeFeeds(ds)...)
	dists := make([]stats.Dist, len(names))
	parallel.ForEach(0, len(names), func(i int) {
		if i == 0 {
			dists[0] = mailTaggedDist(ds)
			return
		}
		dists[i] = feedTaggedDist(ds, names[i])
	})
	return names, dists
}
