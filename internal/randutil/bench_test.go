package randutil

import "testing"

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

func BenchmarkLogNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(2, 0.8)
	}
}

func BenchmarkPoissonSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(3.5)
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(400)
	}
}

func BenchmarkZipfNextWith(b *testing.B) {
	r := New(1)
	z := NewZipf(1.1, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.NextWith(r)
	}
}

func BenchmarkWeightedChoice(b *testing.B) {
	r := New(1)
	weights := make([]float64, 1000)
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	w := NewWeightedChoice(r, weights)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Pick()
	}
}
