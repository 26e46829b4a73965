package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// spearmanRho computes Spearman's rank correlation coefficient between
// the values p and q assign to their common keys, with average ranks
// for ties. It is an independent rank correlation kept as an oracle
// for KendallTauB's sign (TestSpearmanKendallAgreeOnSign). ok is false
// for fewer than 2 common keys or a constant ranking.
func spearmanRho(p, q Dist) (rho float64, n int, ok bool) {
	// Walk the common keys in sorted order so the rank-vector float
	// sums below accumulate in a fixed order across runs.
	type pair struct{ x, y float64 }
	var pairs []pair
	for _, k := range p.sortedKeys() {
		if qv, shared := q[k]; shared {
			pairs = append(pairs, pair{p[k], qv})
		}
	}
	n = len(pairs)
	if n < 2 {
		return 0, n, false
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, pr := range pairs {
		xs[i] = pr.x
		ys[i] = pr.y
	}
	rx := averageRanks(xs)
	ry := averageRanks(ys)
	// Pearson correlation of the rank vectors.
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx := rx[i] - mx
		dy := ry[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, n, false
	}
	return cov / math.Sqrt(vx*vy), n, true
}

// averageRanks assigns 1-based ranks with ties receiving the average
// of the ranks they span.
func averageRanks(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && vals[idx[j]] == vals[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	return ranks
}

func TestSpearmanPerfect(t *testing.T) {
	p := Dist{"a": 1, "b": 2, "c": 3, "d": 4}
	q := Dist{"a": 10, "b": 20, "c": 30, "d": 40}
	rho, n, ok := spearmanRho(p, q)
	if !ok || n != 4 || !almost(rho, 1) {
		t.Fatalf("rho=%g n=%d ok=%v", rho, n, ok)
	}
	q = Dist{"a": 40, "b": 30, "c": 20, "d": 10}
	rho, _, _ = spearmanRho(p, q)
	if !almost(rho, -1) {
		t.Fatalf("rho = %g, want -1", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	// Classic: ranks with ties still give a value in [-1, 1] and
	// monotone agreement stays positive.
	p := Dist{"a": 1, "b": 1, "c": 2, "d": 3}
	q := Dist{"a": 5, "b": 6, "c": 6, "d": 9}
	rho, _, ok := spearmanRho(p, q)
	if !ok || rho <= 0 || rho > 1 {
		t.Fatalf("rho = %g ok=%v", rho, ok)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if _, _, ok := spearmanRho(Dist{"a": 1}, Dist{"a": 1}); ok {
		t.Error("single pair should not be ok")
	}
	if _, _, ok := spearmanRho(Dist{"a": 1, "b": 1}, Dist{"a": 1, "b": 2}); ok {
		t.Error("constant x ranking should not be ok")
	}
}

func TestSpearmanKendallAgreeOnSign(t *testing.T) {
	f := func(vals [8]uint8) bool {
		p := Dist{"a": float64(vals[0]), "b": float64(vals[1]) + 3, "c": float64(vals[2]) + 7, "d": float64(vals[3]) + 11}
		q := Dist{"a": float64(vals[4]), "b": float64(vals[5]) + 3, "c": float64(vals[6]) + 7, "d": float64(vals[7]) + 11}
		rho, _, ok1 := spearmanRho(p, q)
		tau, _, ok2 := KendallTauB(p, q)
		if !ok1 || !ok2 {
			return true
		}
		// Strong disagreement in sign (both decisively nonzero) would
		// indicate a bug.
		return !(rho > 0.5 && tau < -0.5) && !(rho < -0.5 && tau > 0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAverageRanks(t *testing.T) {
	got := averageRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}
