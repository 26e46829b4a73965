package randutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfRange(t *testing.T) {
	r := New(1)
	z := NewZipf(1.1, 50)
	if z.N() != 50 {
		t.Fatalf("N() = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		v := z.NextWith(r)
		if v < 0 || v >= 50 {
			t.Fatalf("Zipf value %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(2)
	z := NewZipf(1.2, 100)
	counts := make([]int, 100)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[z.NextWith(r)]++
	}
	// Rank 0 must dominate rank 10 which must dominate rank 90.
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Errorf("expected monotone-ish decay: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
	// Empirical frequency of rank 0 should match Prob(0) within noise.
	p0 := float64(counts[0]) / trials
	if math.Abs(p0-z.Prob(0)) > 0.01 {
		t.Errorf("empirical p0=%g, analytic=%g", p0, z.Prob(0))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(0.9, 200)
	sum := 0.0
	for k := 0; k < 200; k++ {
		sum += z.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(200) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(100, 1.5)
		if v < 100 {
			t.Fatalf("Pareto below xm: %g", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := New(5)
	const trials = 50000
	over10x := 0
	for i := 0; i < trials; i++ {
		if r.Pareto(1, 1.2) > 10 {
			over10x++
		}
	}
	// P(X > 10) = 10^-1.2 ≈ 0.063
	p := float64(over10x) / trials
	if p < 0.04 || p > 0.09 {
		t.Errorf("tail probability %g, want ~0.063", p)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(6)
	var sumLog float64
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.LogNormal(2, 0.5)
		if v <= 0 {
			t.Fatalf("LogNormal non-positive: %g", v)
		}
		sumLog += math.Log(v)
	}
	if mean := sumLog / trials; math.Abs(mean-2) > 0.02 {
		t.Errorf("log-mean %g, want ~2", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(7)
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		sum := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/trials)+0.05*lambda*0.1+0.5 {
			t.Errorf("Poisson(%g) mean %g", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8)
	const p = 0.25
	sum := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / trials
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%g) mean %g, want %g", p, mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) should be 0")
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	r := New(9)
	w := NewWeightedChoice(r, []float64{1, 0, 3})
	counts := [3]int{}
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[w.Pick()]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio %g, want ~3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"all-zero": {0, 0},
		"negative": {1, -1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewWeightedChoice(New(1), weights)
		})
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	r := New(10)
	for _, tc := range []struct{ n, k int }{{100, 5}, {10, 10}, {1000, 400}, {5, 0}} {
		s := r.SampleInts(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("SampleInts(%d,%d) returned %d values", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("SampleInts(%d,%d) invalid element %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleInts(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
