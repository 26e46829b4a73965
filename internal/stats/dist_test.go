package stats

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewDistFromCounts(t *testing.T) {
	d := NewDistFromCounts(map[string]int64{"a": 3, "b": 1, "c": 0, "d": -5})
	if len(d) != 2 {
		t.Fatalf("len = %d, want 2 (zero/negative dropped)", len(d))
	}
	if !almost(d["a"], 0.75) || !almost(d["b"], 0.25) {
		t.Fatalf("d = %v", d)
	}
	if !almost(d.Total(), 1) {
		t.Fatalf("Total = %g", d.Total())
	}
}

func TestNewDistEmpty(t *testing.T) {
	d := NewDistFromCounts(map[string]int64{"a": 0})
	if len(d) != 0 || d.Total() != 0 {
		t.Fatalf("expected empty dist, got %v", d)
	}
}

func TestVariationDistanceIdentical(t *testing.T) {
	p := NewDistFromCounts(map[string]int64{"a": 5, "b": 5})
	if got := VariationDistance(p, p); !almost(got, 0) {
		t.Fatalf("δ(P,P) = %g", got)
	}
}

func TestVariationDistanceDisjoint(t *testing.T) {
	p := NewDistFromCounts(map[string]int64{"a": 1})
	q := NewDistFromCounts(map[string]int64{"b": 1})
	if got := VariationDistance(p, q); !almost(got, 1) {
		t.Fatalf("δ disjoint = %g, want 1", got)
	}
}

func TestVariationDistanceKnown(t *testing.T) {
	p := Dist{"a": 0.5, "b": 0.5}
	q := Dist{"a": 0.25, "b": 0.25, "c": 0.5}
	// ½(|0.5−0.25| + |0.5−0.25| + 0.5) = 0.5
	if got := VariationDistance(p, q); !almost(got, 0.5) {
		t.Fatalf("δ = %g, want 0.5", got)
	}
}

func TestVariationDistanceSymmetric(t *testing.T) {
	f := func(av, bv, cv, dv uint8) bool {
		p := NewDistFromCounts(map[string]int64{"a": int64(av) + 1, "b": int64(bv)})
		q := NewDistFromCounts(map[string]int64{"b": int64(cv) + 1, "c": int64(dv)})
		d1 := VariationDistance(p, q)
		d2 := VariationDistance(q, p)
		return almost(d1, d2) && d1 >= -1e-12 && d1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVariationDistanceTriangle(t *testing.T) {
	// Property: δ is a metric; triangle inequality must hold.
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 uint8) bool {
		p := NewDistFromCounts(map[string]int64{"x": int64(a1) + 1, "y": int64(a2), "z": int64(a3)})
		q := NewDistFromCounts(map[string]int64{"x": int64(b1) + 1, "y": int64(b2), "z": int64(b3)})
		r := NewDistFromCounts(map[string]int64{"x": int64(c1) + 1, "y": int64(c2), "z": int64(c3)})
		return VariationDistance(p, r) <= VariationDistance(p, q)+VariationDistance(q, r)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauPerfectAgreement(t *testing.T) {
	p := Dist{"a": 0.5, "b": 0.3, "c": 0.2}
	q := Dist{"a": 0.6, "b": 0.3, "c": 0.1}
	tau, n, ok := KendallTauB(p, q)
	if !ok || n != 3 {
		t.Fatalf("ok=%v n=%d", ok, n)
	}
	if !almost(tau, 1) {
		t.Fatalf("τ = %g, want 1", tau)
	}
}

func TestKendallTauPerfectDisagreement(t *testing.T) {
	p := Dist{"a": 0.5, "b": 0.3, "c": 0.2}
	q := Dist{"a": 0.1, "b": 0.3, "c": 0.6}
	tau, _, ok := KendallTauB(p, q)
	if !ok || !almost(tau, -1) {
		t.Fatalf("τ = %g ok=%v, want -1", tau, ok)
	}
}

func TestKendallTauIndependentOfNonCommonKeys(t *testing.T) {
	p := Dist{"a": 0.5, "b": 0.3, "c": 0.2}
	q := Dist{"a": 0.3, "b": 0.2, "c": 0.1, "zzz": 0.4}
	tau, n, ok := KendallTauB(p, q)
	if !ok || n != 3 || !almost(tau, 1) {
		t.Fatalf("τ=%g n=%d ok=%v", tau, n, ok)
	}
}

func TestKendallTauTies(t *testing.T) {
	// x: 1,1,2,3 ; y: 1,2,2,3 over keys a,b,c,d.
	p := Dist{"a": 0.1, "b": 0.1, "c": 0.2, "d": 0.6}
	q := Dist{"a": 0.1, "b": 0.2, "c": 0.2, "d": 0.5}
	tau, n, ok := KendallTauB(p, q)
	if !ok || n != 4 {
		t.Fatalf("n=%d ok=%v", n, ok)
	}
	// Hand computation: pairs (n0=6): (a,b) tieX; (a,c) C; (a,d) C;
	// (b,c) tieY... wait b=(0.1,0.2), c=(0.2,0.2): dx<0? x: 0.1 vs 0.2
	// differ, y tie => tieY. (b,d) C; (c,d) C. C=4, D=0, tiesX=1, tiesY=1.
	// τ = 4 / sqrt((6-1)(6-1)) = 4/5 = 0.8
	if !almost(tau, 0.8) {
		t.Fatalf("τ = %g, want 0.8", tau)
	}
}

func TestKendallTauDegenerate(t *testing.T) {
	if _, _, ok := KendallTauB(Dist{"a": 1}, Dist{"a": 1}); ok {
		t.Error("single common key should not be ok")
	}
	if _, _, ok := KendallTauB(Dist{"a": 0.5, "b": 0.5}, Dist{"a": 0.5, "b": 0.5}); ok {
		// Both rankings fully tied: denominator zero.
		t.Error("constant rankings should not be ok")
	}
	if _, _, ok := KendallTauB(Dist{"a": 1}, Dist{"b": 1}); ok {
		t.Error("no common keys should not be ok")
	}
}

func TestKendallTauRange(t *testing.T) {
	f := func(vals [6]uint8) bool {
		p := Dist{"a": float64(vals[0]) + 1, "b": float64(vals[1]) + 1, "c": float64(vals[2]) + 1}
		q := Dist{"a": float64(vals[3]) + 1, "b": float64(vals[4]) + 1, "c": float64(vals[5]) + 1}
		tau, _, ok := KendallTauB(p, q)
		if !ok {
			return true
		}
		return tau >= -1-1e-9 && tau <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKendallTauSymmetric asserts τ-b(P, Q) == τ-b(Q, P) bit for bit:
// the numerator is an integer and the denominator a commutative
// product, and analysis.KendallTaus computes each unordered pair once
// and mirrors it.
func TestKendallTauSymmetric(t *testing.T) {
	f := func(vals [8]uint8) bool {
		p := Dist{"a": float64(vals[0]), "b": float64(vals[1]) + 1, "c": float64(vals[2]), "d": float64(vals[3]) + 2}
		q := Dist{"a": float64(vals[4]) + 1, "b": float64(vals[5]), "c": float64(vals[6]) + 2, "d": float64(vals[7])}
		t1, _, ok1 := KendallTauB(p, q)
		t2, _, ok2 := KendallTauB(q, p)
		return ok1 == ok2 && (!ok1 || t1 == t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallFastMatchesNaive(t *testing.T) {
	// Property: the O(n log n) implementation agrees with the direct
	// O(n^2) specification on arbitrary tied data.
	f := func(raw []uint8) bool {
		p := Dist{}
		q := Dist{}
		for i := 0; i+1 < len(raw); i += 2 {
			k := string(rune('a'+i/2%26)) + string(rune('0'+i/52))
			p[k] = float64(raw[i] % 8) // heavy ties
			q[k] = float64(raw[i+1] % 8)
		}
		t1, n1, ok1 := KendallTauB(p, q)
		t2, n2, ok2 := kendallTauBNaive(p, q)
		if ok1 != ok2 || n1 != n2 {
			return false
		}
		return !ok1 || almost(t1, t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallFastLargeInput(t *testing.T) {
	p := Dist{}
	q := Dist{}
	rnd := uint32(12345)
	next := func() uint32 { rnd = rnd*1664525 + 1013904223; return rnd }
	for i := 0; i < 3000; i++ {
		k := strconv.Itoa(i)
		p[k] = float64(next() % 500)
		q[k] = float64(next() % 500)
	}
	t1, _, ok1 := KendallTauB(p, q)
	t2, _, ok2 := kendallTauBNaive(p, q)
	if !ok1 || !ok2 || !almost(t1, t2) {
		t.Fatalf("fast %g vs naive %g (ok %v/%v)", t1, t2, ok1, ok2)
	}
}
