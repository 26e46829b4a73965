// Package overload is the serving plane's admission-control and
// graceful-degradation layer: token-bucket rate limits, per-client
// fairness buckets, priority classes, and the shed taxonomy that maps
// a refusal onto each protocol's cheap "try later" reply.
//
// The paper's real-world counterparts — the dbl/uribl blacklist zones,
// the MX honeypots — survive because they keep answering under
// resolver floods and spam storms. Query and delivery load in that
// world is heavy-tailed and bursty, exactly the regime where load
// *shedding*, not queuing, preserves service: a server that accepts
// unbounded work degrades for everyone at once, while one that sheds
// the excess cheaply keeps latency bounded for the traffic it accepts.
// This package centralizes the shed policy so dnsblplane, smtpd,
// feedsync and webhost all degrade the same way. It holds no queue:
// every decision is an immediate admit or shed, so nothing here
// blocks its caller.
//
// Determinism: nothing here consumes ambient randomness or hidden
// clocks. Every decision is a pure function of the injected Clock and
// the configured rates, so a simclock-driven test replays the exact
// shed sequence, and the chaos suite can assert that shedding never
// perturbs the deterministic engine (goldens stay byte-identical).
// Instrumentation flows through internal/obs and only observes — a
// gate with metrics admits exactly what one without them would.
package overload

import (
	"sync"
	"time"
)

// Clock supplies the current time. Production servers pass the wall
// clock; deterministic tests drive a simclock-anchored stub.
type Clock func() time.Time

// WallClock is the conventional production clock.
func WallClock() time.Time {
	return time.Now() //lint:allow wallclock -- the one sanctioned wall-clock seam; tests inject stubs
}

// clockOr returns c when non-nil, else the wall clock.
func clockOr(c Clock) Clock {
	if c != nil {
		return c
	}
	return WallClock
}

// Priority classes order traffic under pressure: control-plane traffic
// (oracle lookups, feedsync subscriptions) outranks bulk queries, so
// when capacity runs out the bulk tier sheds first and the critical
// tier last.
type Priority int

const (
	// Bulk is best-effort traffic: resolver query floods, crawl
	// fetches. First to shed.
	Bulk Priority = iota
	// Normal is standard interactive traffic.
	Normal
	// Critical is control-plane traffic — oracle checks, feedsync
	// replication, coordinator leases. Last to shed.
	Critical
	// NumPriorities sizes per-priority arrays.
	NumPriorities
)

// String implements fmt.Stringer (used as a metric label).
func (p Priority) String() string {
	switch p {
	case Bulk:
		return "bulk"
	case Normal:
		return "normal"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// headroomNum/headroomDen give each priority its share of the
// concurrency limit in exact integer arithmetic: bulk traffic sheds
// once the gate is 3/4 full, normal at 9/10, critical only at the hard
// limit. The reserve kept from lower tiers is what lets control
// traffic through a flood.
var headroomNum = [NumPriorities]int{3, 9, 1}
var headroomDen = [NumPriorities]int{4, 10, 1}

// Share returns priority p's portion of a total capacity of max (at
// least 1, so a tiny limit still serves): the in-flight cap inside a
// Gate, and the queue-depth cap servers apply when enqueuing work at
// this priority.
func (p Priority) Share(max int) int {
	if p < 0 || p >= NumPriorities {
		p = Bulk
	}
	l := max * headroomNum[p] / headroomDen[p]
	if l < 1 {
		l = 1
	}
	return l
}

// GateConfig parameterises a Gate. The zero value admits everything
// (no limits), so wiring a gate is never worse than not having one.
type GateConfig struct {
	// MaxConcurrent caps in-flight admissions (0 = unlimited). Priority
	// classes shed at fractions of this cap (bulk 3/4, normal 9/10,
	// critical 1/1), reserving headroom for control traffic.
	MaxConcurrent int
	// Rate and Burst configure an optional token bucket per priority
	// class, in admissions per second (Rate 0 = unlimited for that
	// class). Burst 0 defaults to Rate.
	Rate  [NumPriorities]float64
	Burst [NumPriorities]float64
	// FairBuckets enables per-client fairness: clients hash (seeded)
	// into this many buckets, each with its own FairRate/FairBurst
	// token bucket, so one abusive client exhausts only its bucket.
	// 0 disables fairness.
	FairBuckets int
	// FairRate and FairBurst shape each fairness bucket (per second).
	FairRate  float64
	FairBurst float64
	// Seed drives the fairness hash so bucket assignment is
	// deterministic per run yet not guessable across deployments.
	Seed uint64
	// Clock supplies admission timestamps (default wall clock).
	Clock Clock
	// Metrics observes the gate; the zero value is inert.
	Metrics GateMetrics
}

// Gate is a non-blocking admission controller: callers ask once, and a
// refusal is a shed — the caller answers with its protocol's cheap
// "try later" (SERVFAIL, 421, 503) instead of queuing unboundedly.
// It is safe for concurrent use.
type Gate struct {
	cfg     GateConfig
	clock   Clock
	buckets [NumPriorities]*TokenBucket
	fair    *Fairness

	mu       sync.Mutex
	inflight int
}

// NewGate builds a gate from cfg.
func NewGate(cfg GateConfig) *Gate {
	g := &Gate{cfg: cfg, clock: clockOr(cfg.Clock)}
	for p := Priority(0); p < NumPriorities; p++ {
		if cfg.Rate[p] > 0 {
			burst := cfg.Burst[p]
			if burst <= 0 {
				burst = cfg.Rate[p]
			}
			g.buckets[p] = NewTokenBucket(cfg.Rate[p], burst, g.clock)
		}
	}
	if cfg.FairBuckets > 0 && cfg.FairRate > 0 {
		burst := cfg.FairBurst
		if burst <= 0 {
			burst = cfg.FairRate
		}
		g.fair = NewFairness(cfg.FairBuckets, cfg.FairRate, burst, cfg.Seed, g.clock)
	}
	return g
}

// InFlight returns the number of admissions currently held.
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Allow performs the rate and fairness checks for (p, client) without
// taking a concurrency slot — the per-message check for protocols
// whose session is already admitted (an SMTP DATA under an admitted
// connection). A nil gate allows everything.
func (g *Gate) Allow(p Priority, client string) bool {
	if g == nil {
		return true
	}
	if g.fair != nil && !g.fair.Allow(client) {
		g.cfg.Metrics.shed(p, ShedFairness)
		return false
	}
	if b := g.bucketFor(p); b != nil && !b.Allow(1) {
		g.cfg.Metrics.shed(p, ShedRate)
		return false
	}
	g.cfg.Metrics.admitted(p)
	return true
}

// bucketFor returns the token bucket guarding priority p (nil when the
// class is unlimited).
func (g *Gate) bucketFor(p Priority) *TokenBucket {
	if p < 0 || p >= NumPriorities {
		p = Bulk
	}
	return g.buckets[p]
}

// Admit asks for a concurrency slot at priority p for the given
// client. On success it returns ok=true and a release function the
// caller MUST invoke when the work completes; on shed it returns
// ok=false and a nil release. A nil gate admits everything (release is
// still non-nil and safe to call).
func (g *Gate) Admit(p Priority, client string) (release func(), ok bool) {
	if g == nil {
		return func() {}, true
	}
	if g.fair != nil && !g.fair.Allow(client) {
		g.cfg.Metrics.shed(p, ShedFairness)
		return nil, false
	}
	if b := g.bucketFor(p); b != nil && !b.Allow(1) {
		g.cfg.Metrics.shed(p, ShedRate)
		return nil, false
	}
	g.mu.Lock()
	if g.cfg.MaxConcurrent > 0 && g.inflight >= p.Share(g.cfg.MaxConcurrent) {
		g.mu.Unlock()
		g.cfg.Metrics.shed(p, ShedCapacity)
		return nil, false
	}
	g.inflight++
	g.cfg.Metrics.InFlight.Set(int64(g.inflight))
	g.mu.Unlock()
	g.cfg.Metrics.admitted(p)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight--
			g.cfg.Metrics.InFlight.Set(int64(g.inflight))
			g.mu.Unlock()
		})
	}, true
}
