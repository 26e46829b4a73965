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
	return pairwise(ds, false, func(p, q stats.Dist) (float64, bool) {
		return stats.VariationDistance(p, q), true
	})
}

// KendallTaus computes Figure 8: pairwise Kendall rank correlation
// (tau-b) of tagged-domain volumes, including the Mail oracle.
func KendallTaus(ds *Dataset) *PairwiseDist {
	return pairwise(ds, true, func(p, q stats.Dist) (float64, bool) {
		tau, _, ok := stats.KendallTauB(p, q)
		return tau, ok
	})
}

// pairwise fills the symmetric matrix of metric over the
// proportionality inputs, one unordered pair per worker, and mirrors
// each result: both metrics are bit-symmetric (stats' FuzzDistSortedSum
// and TestKendallTauSymmetric assert it exactly). The diagonal is
// computed only when diag is set; otherwise it holds the exact zero
// that δ(P, P) is. VariationDistancesSerial and KendallTausSerial are
// the pinned full n×n references.
func pairwise(ds *Dataset, diag bool, metric func(p, q stats.Dist) (float64, bool)) *PairwiseDist {
	names, dists := proportionInputs(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	skip := 1 // columns j > i; with diag, j >= i
	if diag {
		skip = 0
	}
	var pairs [][2]int
	for i := range n {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		out.OK[i][i] = !diag
		for j := i + skip; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	parallel.ForEach(0, len(pairs), func(k int) {
		i, j := pairs[k][0], pairs[k][1]
		v, ok := metric(dists[i], dists[j])
		out.Value[i][j], out.OK[i][j] = v, ok
		out.Value[j][i], out.OK[j][i] = v, ok
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
