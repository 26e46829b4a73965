package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// The quantile tests run through Summarize, the live caller of
// quantileSorted; q = 0 and 1 are its Min and Max.
func TestQuantileBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4, 5}) // unsorted on purpose
	cases := []struct {
		q, got, want float64
	}{
		{0, s.Min, 1},
		{0.25, s.P25, 2},
		{0.5, s.Median, 3},
		{0.75, s.P75, 4},
		{1, s.Max, 5},
	}
	for _, c := range cases {
		if !almost(c.got, c.want) {
			t.Errorf("quantile %g = %g, want %g", c.q, c.got, c.want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	vals := []float64{0, 10}
	if got := Summarize(vals).Median; !almost(got, 5) {
		t.Errorf("median = %g, want 5", got)
	}
	if got := quantileSorted(vals, 0.1); !almost(got, 1) {
		t.Errorf("quantile 0.1 = %g, want 1", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Summary", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Summarize(vals)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Median, 5.5) || !almost(s.Mean, 5.5) {
		t.Fatalf("median=%g mean=%g", s.Median, s.Mean)
	}
	if !almost(s.P25, 3.25) || !almost(s.P75, 7.75) {
		t.Fatalf("p25=%g p75=%g", s.P25, s.P75)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("N = %d", s.N)
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Summarize(vals)
		ordered := []float64{s.Min, s.P25, s.Median, s.P75, s.P95, s.Max}
		return sort.Float64sAreSorted(ordered)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDurations(t *testing.T) {
	s := SummarizeDurations([]time.Duration{time.Hour, 3 * time.Hour})
	if s.N != 2 || !almost(s.Min, 1) || !almost(s.Max, 3) || !almost(s.Median, 2) {
		t.Fatalf("summary = %+v", s)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4}); !almost(got, 3) {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %g", got)
	}
}

func TestFraction(t *testing.T) {
	if got := Fraction(1, 4); !almost(got, 0.25) {
		t.Errorf("Fraction = %g", got)
	}
	if got := Fraction(5, 0); got != 0 {
		t.Errorf("Fraction(_, 0) = %g, want 0", got)
	}
}
