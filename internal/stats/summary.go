package stats

import (
	"math"
	"sort"
	"time"
)

// quantileSorted returns the q-th quantile (0 <= q <= 1) of the
// sorted, non-empty s, interpolating linearly between order statistics
// (type-7, the common spreadsheet definition).
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary is a boxplot-style five-number-plus summary of a sample, in
// the units of the input.
type Summary struct {
	N      int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary. It returns a zero Summary for empty
// input.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		P25:    quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.50),
		P75:    quantileSorted(s, 0.75),
		P95:    quantileSorted(s, 0.95),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
	}
}

// SummarizeDurations computes a Summary over durations, expressed in
// hours — the unit the paper's timing figures use.
func SummarizeDurations(ds []time.Duration) Summary {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Hours()
	}
	return Summarize(vals)
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Fraction returns num/den as a float, or 0 when den == 0 — the
// convention used when rendering percentage matrices with empty
// denominators.
func Fraction(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
