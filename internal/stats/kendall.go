package stats

import (
	"math"
	"sort"
)

// KendallTauB computes the tie-adjusted Kendall rank correlation
// coefficient between the values p and q assign to their common keys
// (the paper's "domains common to both feeds"), using Knight's
// O(n log n) algorithm. It returns the coefficient and the number of
// common keys n. If n < 2 or either ranking is constant, ok is false.
//
// τ-b = (C − D) / sqrt((n0 − n1)(n0 − n2)) with n0 = n(n−1)/2 and
// n1, n2 the tie corrections Σ t(t−1)/2 in each ranking.
func KendallTauB(p, q Dist) (tau float64, n int, ok bool) {
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
	// Sort by x, breaking ties by y, so that within an x-tie group the
	// y values are already ordered and contribute no swaps.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].x != pairs[j].x {
			return pairs[i].x < pairs[j].x
		}
		return pairs[i].y < pairs[j].y
	})

	n0 := int64(n) * int64(n-1) / 2

	// n1: ties in x; n3: ties in both x and y (within x groups).
	var n1, n3 int64
	for i := 0; i < n; {
		j := i
		for j < n && pairs[j].x == pairs[i].x {
			j++
		}
		t := int64(j - i)
		n1 += t * (t - 1) / 2
		for a := i; a < j; {
			b := a
			for b < j && pairs[b].y == pairs[a].y {
				b++
			}
			u := int64(b - a)
			n3 += u * (u - 1) / 2
			a = b
		}
		i = j
	}

	// Count discordant pairs as merge-sort inversions of the y
	// sequence (x-ties contribute no inversions thanks to the
	// secondary sort).
	ys := make([]float64, n)
	for i, pr := range pairs {
		ys[i] = pr.y
	}
	swaps := countInversions(ys, make([]float64, n))

	// n2: ties in y, counted on the fully sorted y sequence.
	var n2 int64
	for i := 0; i < n; {
		j := i
		for j < n && ys[j] == ys[i] {
			j++
		}
		t := int64(j - i)
		n2 += t * (t - 1) / 2
		i = j
	}

	denom := math.Sqrt(float64(n0-n1)) * math.Sqrt(float64(n0-n2))
	if denom == 0 {
		return 0, n, false
	}
	// Concordant − discordant = n0 − n1 − n2 + n3 − 2·swaps.
	num := float64(n0-n1-n2+n3) - 2*float64(swaps)
	return num / denom, n, true
}

// countInversions merge-sorts xs in place and returns the number of
// inversions (j < k with xs[j] > xs[k]); equal elements are not
// inversions. buf must have the same length as xs.
func countInversions(xs, buf []float64) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := countInversions(xs[:mid], buf[:mid]) +
		countInversions(xs[mid:], buf[mid:])
	// Merge, counting cross inversions.
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			j++
			inv += int64(mid - i)
		}
		k++
	}
	for i < mid {
		buf[k] = xs[i]
		i++
		k++
	}
	for j < n {
		buf[k] = xs[j]
		j++
		k++
	}
	copy(xs, buf)
	return inv
}
