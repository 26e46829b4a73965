// Package stats implements the statistical machinery of the paper's
// proportionality and timing analyses: empirical domain-volume
// distributions, variation distance, the tie-adjusted Kendall rank
// correlation coefficient (τ-b), and quantile/boxplot summaries.
package stats

import (
	"math"
	"sort"
)

// Dist is an empirical probability distribution over string-keyed
// items (domains). Probabilities sum to 1 unless the distribution is
// empty.
type Dist map[string]float64

// NewDistFromCounts normalizes a count map into an empirical
// distribution. Zero and negative counts are dropped. It returns an
// empty distribution if no positive counts exist.
func NewDistFromCounts(counts map[string]int64) Dist {
	var total int64
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	d := make(Dist, len(counts))
	if total == 0 {
		return d
	}
	for k, c := range counts {
		if c > 0 {
			d[k] = float64(c) / float64(total)
		}
	}
	return d
}

// sortedKeys returns the distribution's keys in lexicographic order,
// the canonical iteration order for float accumulation.
func (d Dist) sortedKeys() []string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Total returns the probability mass (1 for a proper distribution, 0
// for an empty one); useful for sanity checks.
func (d Dist) Total() float64 {
	t := 0.0
	for _, k := range d.sortedKeys() {
		t += d[k]
	}
	return t
}

// VariationDistance computes δ(P, Q) = ½ Σ |p_i − q_i| over the union
// of both supports. A key absent from a distribution has probability 0,
// as in the paper. The result is in [0, 1]: 0 iff P = Q, 1 iff their
// supports are disjoint.
func VariationDistance(p, q Dist) float64 {
	// Accumulate over the sorted union of both supports: float addition
	// is not associative, so one canonical order makes the result
	// bit-identical across runs AND bit-symmetric — δ(P, Q) == δ(Q, P)
	// exactly, not just up to the last ulp, which the fuzz target
	// asserts.
	union := make(map[string]bool, len(p)+len(q))
	for k := range p {
		union[k] = true
	}
	for k := range q {
		union[k] = true
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += math.Abs(p[k] - q[k])
	}
	return sum / 2
}

// kendallTauBNaive is the direct O(n^2) τ-b computation. It is kept as
// the executable specification the O(n log n) KendallTauB is
// cross-validated against (see TestKendallFastMatchesNaive).
func kendallTauBNaive(p, q Dist) (tau float64, n int, ok bool) {
	type pair struct{ x, y float64 }
	var pairs []pair
	for k, pv := range p {
		if qv, shared := q[k]; shared {
			pairs = append(pairs, pair{pv, qv})
		}
	}
	n = len(pairs)
	if n < 2 {
		return 0, n, false
	}
	var concordant, discordant, tiesX, tiesY int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pairs[i].x - pairs[j].x
			dy := pairs[i].y - pairs[j].y
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	denom := math.Sqrt(float64(n0-tiesX)) * math.Sqrt(float64(n0-tiesY))
	if denom == 0 {
		return 0, n, false
	}
	return float64(concordant-discordant) / denom, n, true
}
