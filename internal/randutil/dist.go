package randutil

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(k+1)^s, using precomputed cumulative weights with binary-search
// inversion. It holds no generator: each draw takes the caller's, so
// it is deterministic given that RNG. It is cheap for the sizes the
// simulation uses (n up to a few hundred thousand).
type Zipf struct {
	cum []float64 // cumulative probabilities, cum[n-1] == 1
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("randutil: NewZipf with n=%d", n))
	}
	if s <= 0 {
		panic(fmt.Sprintf("randutil: NewZipf with s=%g", s))
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}
}

// N returns the size of the sampler's support.
func (z *Zipf) N() int { return len(z.cum) }

// NextWith draws the next Zipf-distributed value in [0, n) from rng.
// The precomputed weight table is read-only, so one sampler may serve
// many worker-owned generators concurrently.
func (z *Zipf) NextWith(rng *RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Prob returns the probability of value k under the distribution.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}

// Pareto returns a Pareto(xm, alpha) variate: a heavy-tailed positive
// value with minimum xm. Used for affiliate revenues and campaign sizes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)). Used for per-domain campaign
// volumes and human report delays.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda a normal approximation,
// which is accurate enough for event-count generation.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic(fmt.Sprintf("randutil: Geometric with p=%g", p))
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// WeightedChoice selects indexes in [0, len(weights)) with probability
// proportional to the given non-negative weights. Construction is O(n);
// each Pick is O(log n).
type WeightedChoice struct {
	rng *RNG
	cum []float64
}

// NewWeightedChoice builds a sampler over the given weights. At least
// one weight must be positive.
func NewWeightedChoice(rng *RNG, weights []float64) *WeightedChoice {
	if len(weights) == 0 {
		panic("randutil: NewWeightedChoice with no weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("randutil: negative or NaN weight %g at %d", w, i)) //lint:allow stringalloc -- error path: formats once, then panics
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("randutil: NewWeightedChoice with all-zero weights")
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1
	return &WeightedChoice{rng: rng, cum: cum}
}

// Pick returns the next weighted index.
func (w *WeightedChoice) Pick() int {
	u := w.rng.Float64()
	return sort.SearchFloat64s(w.cum, u)
}

// SampleInts returns k distinct uniform values from [0, n) in random
// order. It panics if k > n.
func (r *RNG) SampleInts(n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("randutil: SampleInts k=%d > n=%d", k, n))
	}
	if k < 0 {
		panic(fmt.Sprintf("randutil: SampleInts k=%d", k))
	}
	// For small k relative to n, use rejection from a set; otherwise
	// a partial Fisher-Yates over the full range.
	if n > 4*k {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := r.Perm(n)
	return p[:k]
}
