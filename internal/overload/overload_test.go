package overload

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/obs"
)

// fakeClock is a hand-advanced clock; tests drive it so every
// admission decision replays exactly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketRefill(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, 5, clk.Now) // 10 tok/s, burst 5
	for i := 0; i < 5; i++ {
		if !b.Allow(1) {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if b.Allow(1) {
		t.Fatal("allowed past burst with no time elapsed")
	}
	clk.Advance(100 * time.Millisecond) // +1 token
	if !b.Allow(1) {
		t.Fatal("refused after refill")
	}
	if b.Allow(1) {
		t.Fatal("allowed more than the refill")
	}
	clk.Advance(time.Hour)
	if got := b.Tokens(); got != 5 {
		t.Fatalf("tokens after long idle = %v, want burst cap 5", got)
	}
}

func TestTokenBucketDelay(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, 1, clk.Now)
	if d := b.Delay(1); d != 0 {
		t.Fatalf("full bucket Delay = %v, want 0", d)
	}
	b.Allow(1)
	if d := b.Delay(1); d != 100*time.Millisecond {
		t.Fatalf("Delay for 1 token at 10/s = %v, want 100ms", d)
	}
	var nilBucket *TokenBucket
	if d := nilBucket.Delay(1); d != 0 {
		t.Fatalf("nil bucket Delay = %v, want 0", d)
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(0, 0, newFakeClock().Now)
	for i := 0; i < 1000; i++ {
		if !b.Allow(1) {
			t.Fatal("rate<=0 bucket must be unlimited")
		}
	}
	var nilBucket *TokenBucket
	if !nilBucket.Allow(1) {
		t.Fatal("nil bucket must allow")
	}
}

func TestTokenBucketClockBackwards(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, 10, clk.Now)
	b.Allow(5)
	before := b.Tokens()
	clk.Advance(-time.Hour)
	if got := b.Tokens(); got != before {
		t.Fatalf("backwards clock changed balance: %v -> %v", before, got)
	}
}

func TestFairnessIsolation(t *testing.T) {
	clk := newFakeClock()
	f := NewFairness(64, 10, 10, 42, clk.Now)
	// Find two clients that land in different buckets.
	a := "client-a"
	b := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("client-%d", i)
		if f.bucketIndex(cand) != f.bucketIndex(a) {
			b = cand
			break
		}
	}
	if b == "" {
		t.Fatal("could not find clients in distinct buckets")
	}
	// Flood a's bucket dry.
	for f.Allow(a) {
	}
	if f.Allow(a) {
		t.Fatal("flooding client still admitted")
	}
	if !f.Allow(b) {
		t.Fatal("innocent client starved by another bucket's flood")
	}
}

func TestFairnessSeedChangesPartition(t *testing.T) {
	clk := newFakeClock()
	f1 := NewFairness(64, 1, 1, 1, clk.Now)
	f2 := NewFairness(64, 1, 1, 2, clk.Now)
	same := 0
	for i := 0; i < 256; i++ {
		c := fmt.Sprintf("c%d", i)
		if f1.bucketIndex(c) == f2.bucketIndex(c) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("seed had no effect on bucket assignment")
	}
}

func TestPriorityShareHeadroom(t *testing.T) {
	cases := []struct {
		p    Priority
		max  int
		want int
	}{
		{Bulk, 20, 15},
		{Normal, 20, 18},
		{Critical, 20, 20},
		{Bulk, 1, 1}, // floor: a tiny gate still serves
		{Priority(99), 20, 15},
	}
	for _, c := range cases {
		if got := c.p.Share(c.max); got != c.want {
			t.Errorf("%v.Share(%d) = %d, want %d", c.p, c.max, got, c.want)
		}
	}
}

func TestGatePriorityHeadroom(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(GateConfig{MaxConcurrent: 20, Clock: clk.Now})
	var releases []func()
	admitAll := func(p Priority) int {
		n := 0
		for {
			rel, ok := g.Admit(p, "c")
			if !ok {
				return n
			}
			releases = append(releases, rel)
			n++
		}
	}
	if got := admitAll(Bulk); got != 15 {
		t.Fatalf("bulk admissions = %d, want 15 (3/4 of 20)", got)
	}
	if got := admitAll(Normal); got != 3 {
		t.Fatalf("normal admissions on top = %d, want 3 (to 18)", got)
	}
	if got := admitAll(Critical); got != 2 {
		t.Fatalf("critical admissions on top = %d, want 2 (to 20)", got)
	}
	if got := g.InFlight(); got != 20 {
		t.Fatalf("InFlight = %d, want 20", got)
	}
	for _, rel := range releases {
		rel()
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after releases = %d, want 0", got)
	}
}

func TestGateReleaseIdempotent(t *testing.T) {
	g := NewGate(GateConfig{MaxConcurrent: 2, Clock: newFakeClock().Now})
	rel, ok := g.Admit(Critical, "c")
	if !ok {
		t.Fatal("empty gate refused")
	}
	rel()
	rel() // double release must not underflow
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after double release = %d, want 0", got)
	}
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	rel, ok := g.Admit(Bulk, "c")
	if !ok {
		t.Fatal("nil gate refused")
	}
	rel()
	if !g.Allow(Bulk, "c") {
		t.Fatal("nil gate Allow refused")
	}
	if g.InFlight() != 0 {
		t.Fatal("nil gate reports load")
	}
}

func TestGateRateShed(t *testing.T) {
	clk := newFakeClock()
	var cfg GateConfig
	cfg.Clock = clk.Now
	cfg.Rate[Bulk] = 10
	cfg.Burst[Bulk] = 2
	g := NewGate(cfg)
	if !g.Allow(Bulk, "c") || !g.Allow(Bulk, "c") {
		t.Fatal("burst refused")
	}
	if g.Allow(Bulk, "c") {
		t.Fatal("allowed past bulk rate")
	}
	// Other classes are unlimited.
	if !g.Allow(Critical, "c") {
		t.Fatal("critical refused while unlimited")
	}
	clk.Advance(time.Second)
	if !g.Allow(Bulk, "c") {
		t.Fatal("refused after refill")
	}
}

func TestGateMetricsObserve(t *testing.T) {
	clk := newFakeClock()
	r := obs.NewRegistry()
	var cfg GateConfig
	cfg.MaxConcurrent = 1
	cfg.Clock = clk.Now
	cfg.Metrics = NewGateMetrics(r, "test_gate")
	g := NewGate(cfg)
	rel, ok := g.Admit(Critical, "c")
	if !ok {
		t.Fatal("refused")
	}
	if _, ok := g.Admit(Critical, "c"); ok {
		t.Fatal("admitted past MaxConcurrent")
	}
	rel()
	if got := cfg.Metrics.Admitted[Critical].Value(); got != 1 {
		t.Fatalf("admitted counter = %d, want 1", got)
	}
	if got := cfg.Metrics.Shed[Critical][ShedCapacity].Value(); got != 1 {
		t.Fatalf("capacity shed counter = %d, want 1", got)
	}
	if got := cfg.Metrics.InFlight.Value(); got != 0 {
		t.Fatalf("inflight gauge = %d, want 0", got)
	}
}

func TestGateConcurrentAdmitRace(t *testing.T) {
	// Hammer Admit/release from many goroutines under the wall-free
	// fake clock; -race plus the InFlight invariant catches accounting
	// bugs.
	clk := newFakeClock()
	g := NewGate(GateConfig{MaxConcurrent: 8, Clock: clk.Now})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", id)
			for j := 0; j < 200; j++ {
				if rel, ok := g.Admit(Normal, client); ok {
					if g.InFlight() > 8 {
						t.Error("inflight exceeded MaxConcurrent")
					}
					rel()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}
