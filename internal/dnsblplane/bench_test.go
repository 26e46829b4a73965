package dnsblplane

import (
	"fmt"
	"testing"

	"tasterschoice/internal/simclock"
)

// benchQueries builds a mixed workload: listed A, listed TXT, misses.
func benchQueries(n int) [][]byte {
	qs := make([][]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("spam%02d.example", i%32)
		qs = append(qs,
			appendQuery(nil, uint16(i), name, "dbl.test", 1),
			appendQuery(nil, uint16(i), name, "dbl.test", 16),
			appendQuery(nil, uint16(i), fmt.Sprintf("miss%d.example", i), "dbl.test", 1))
	}
	return qs
}

// BenchmarkRespond measures the plane's full fast path over a mixed
// hit/TXT/miss workload. The steady state must not allocate: pooled
// Responder scratch plus the negative cache make per-query allocations
// zero once caches warm.
func BenchmarkRespond(b *testing.B) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.LoadFeed("dbl.test", testFeed("dbl", 32)); err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(64)
	r := NewResponder(p)
	out := make([]byte, 0, 512)
	// Warm the negative cache so the measured loop is the steady state.
	for _, q := range qs {
		out = r.Respond(out[:0], q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = r.Respond(out[:0], qs[i%len(qs)])
	}
	_ = out
}

// BenchmarkApply measures hot-reload delta application.
func BenchmarkApply(b *testing.B) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 256)
	for i := range recs {
		recs[i] = Record{
			Domain: fmt.Sprintf("dom%04d.example", i),
			First:  simclock.PaperStart,
			Feed:   "dbl",
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Apply("dbl.test", recs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRespondSteadyStateAllocs pins the fast path's allocation story:
// after warmup, answering costs zero allocations per query, and so
// does caching a never-seen miss once every negative-cache slot has
// held one.
func TestRespondSteadyStateAllocs(t *testing.T) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadFeed("dbl.test", testFeed("dbl", 8)); err != nil {
		t.Fatal(err)
	}
	qs := benchQueries(16)
	r := NewResponder(p)
	out := make([]byte, 0, 512)
	for _, q := range qs {
		out = r.Respond(out[:0], q)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, q := range qs {
			out = r.Respond(out[:0], q)
		}
	})
	if avg > 0.5 {
		t.Fatalf("steady-state Respond allocates %.1f allocs per %d-query pass, want 0", avg, len(qs))
	}

	// Never-repeated misses, each pass more than the 4×512 slots the
	// cache holds, so every miss evicts one. The first pass (the one
	// AllocsPerRun discards) leaves every slot holding a name of this
	// length; the measured pass must reuse the slots' buffers.
	const missPass = 4096
	misses := make([][]byte, 2*missPass)
	for i := range misses {
		misses[i] = appendQuery(nil, uint16(i), fmt.Sprintf("never%06d.example", i), "dbl.test", 1)
	}
	next := 0
	avg = testing.AllocsPerRun(1, func() {
		for _, q := range misses[next : next+missPass] {
			out = r.Respond(out[:0], q)
		}
		next += missPass
	})
	if avg != 0 {
		t.Fatalf("answering %d never-seen misses allocates %.0f times once the negative cache is full, want 0", missPass, avg)
	}
}
