package mailflow

import (
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/oracle"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// webmail models the large webmail provider: every incoming message is
// counted by the oracle, the automated filter drops most loud spam,
// surviving messages reach inboxes where users sometimes click "this is
// spam" (after a human-timescale delay), and each report feeds the
// provider's filter so later messages naming the same domain rarely get
// through again. That feedback loop is the mechanism behind the Hu
// feed's paradoxical profile: tiny volume, enormous coverage.
//
// The filter state is per domain, so the provider is modeled as a set
// of independent per-domain chains. Each chain owns its own RNG stream
// (derived from the seed and the domain name) and its own filter
// state, which is what lets the engine process chains concurrently:
// batches naming a domain are queued in canonical campaign order via
// enqueue, and flush walks every queued batch sequentially per shard
// while running different shards on different workers. Side effects
// that touch state shared across chains (the Hu feed, the oracle, the
// report counter) are buffered per shard during flush and merged
// serially in fixed shard order, so the result is identical for every
// worker count.
//
// Domains flow through as interned symbol IDs and batch times as
// packed UnixNano — each chain's RNG draws depend only on its own
// batch subsequence, so the columnar form reproduces the string-era
// streams bit for bit.
type webmail struct {
	cfg    *Config
	window simclock.Window
	// windowEndN is window.End as UnixNano, for the report cutoff.
	windowEndN int64
	hu         *feeds.Feed
	oracle     *oracle.Oracle
	syms       *symtab.Table
	// seed derives per-domain chain RNG streams ("webmail/<domain>").
	seed uint64
	// chaffWith draws a benign chaff domain using the given RNG; set
	// by the engine (nil disables chaff co-reports).
	chaffWith func(*randutil.RNG) (symtab.ID, bool)
	// reports counts total human reports (diagnostics).
	reports int64

	shards [wmShardCount]wmShard
}

// wmShardCount is the fixed chain-shard fan-out. It is independent of
// the worker count — chains are assigned to shards by domain hash, and
// workers pick up whole shards — so the shard a chain lands in, and
// therefore every result, never depends on parallelism.
const wmShardCount = 64

// wmShard owns the chains whose domain hashes to it, plus the queued
// batches and buffered side effects of the chunk in flight. Exactly one
// worker touches a shard during flush. Chains are stored by value in a
// flat slice (one allocation amortized over all domains) with a dense
// ID index.
type wmShard struct {
	chainIdx map[symtab.ID]int32
	chains   []wmChain

	// pend is the chunk's queue in enqueue order — canonical
	// (campaign, slot) order per domain, which is the order that
	// defines chain semantics. Batches of different domains interleave
	// freely: each chain consumes only its own subsequence.
	pend []wmBatch

	// Per-chunk buffered side effects, merged serially after the
	// parallel phase.
	hu      []huEvent
	oracle  map[symtab.ID]int64
	reports int64
}

// wmChain is one domain's persistent filter state.
type wmChain struct {
	// rng is the chain's private stream, created on first batch.
	rng randutil.RNG
	// firstReport is the earliest report time (UnixNano); the filter
	// acts on messages arriving after it. Valid only when reported.
	firstReport int64
	reported    bool
}

// wmBatch is one slot's webmail delivery: times are ascending UnixNano.
type wmBatch struct {
	d     symtab.ID
	class ecosystem.CampaignClass
	times []int64
	// prefiltered batches are blocked outright by the provider's
	// signatures: the oracle counts them but no message reaches an
	// inbox and no RNG draw is consumed.
	prefiltered bool
}

type huEvent struct {
	t int64
	d symtab.ID
}

func newWebmail(cfg *Config, window simclock.Window, hu *feeds.Feed, o *oracle.Oracle) *webmail {
	wm := &webmail{
		cfg:        cfg,
		window:     window,
		windowEndN: window.End.UnixNano(),
		hu:         hu,
		oracle:     o,
		syms:       hu.Syms(),
		seed:       cfg.Seed,
	}
	for i := range wm.shards {
		wm.shards[i].chainIdx = make(map[symtab.ID]int32)
		wm.shards[i].oracle = make(map[symtab.ID]int64)
	}
	return wm
}

// shardOf assigns a domain to its chain shard (FNV-1a over the name, so
// shard assignment is a pure function of the domain string, never of ID
// allocation order).
func shardOf(d domain.Name) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(d); i++ {
		h ^= uint64(d[i])
		h *= 1099511628211
	}
	return int(h % wmShardCount)
}

// shardOfID is shardOf for an interned domain.
func (wm *webmail) shardOfID(d symtab.ID) int {
	return shardOf(domain.Name(wm.syms.Lookup(d)))
}

// chain returns d's persistent chain, creating it (with its private
// RNG stream) on first use. The returned pointer is invalidated by the
// next chain creation in the same shard.
func (s *wmShard) chain(wm *webmail, d symtab.ID) *wmChain {
	if ci, ok := s.chainIdx[d]; ok {
		return &s.chains[ci]
	}
	s.chains = append(s.chains, wmChain{
		rng: randutil.NamedPair(wm.seed, "webmail/", wm.syms.Lookup(d)),
	})
	s.chainIdx[d] = int32(len(s.chains) - 1)
	return &s.chains[len(s.chains)-1]
}

// evasion returns the filter-evasion probability for a campaign class.
func (wm *webmail) evasion(class ecosystem.CampaignClass) float64 {
	switch class {
	case ecosystem.ClassLoud:
		return wm.cfg.InboxEvasionLoud
	case ecosystem.ClassTiny:
		return wm.cfg.InboxEvasionTiny
	default:
		return wm.cfg.InboxEvasionQuiet
	}
}

// shardSink buffers a chain's side effects in its shard for the
// post-flush serial merge. Times are UnixNano.
type shardSink struct {
	s            *wmShard
	startN, endN int64
}

func (k shardSink) record(t int64, d symtab.ID) {
	if t >= k.startN && t < k.endN {
		k.s.oracle[d]++
	}
}
func (k shardSink) report(rt int64, d symtab.ID) {
	k.s.reports++
	k.s.hu = append(k.s.hu, huEvent{rt, d})
}
func (k shardSink) coReport(rt int64, d symtab.ID) {
	k.s.hu = append(k.s.hu, huEvent{rt, d})
}

// run processes one batch of messages (times ascending) through d's
// chain with the chain's own RNG: oracle count, filter, report draw,
// feedback update, and the benign chaff domain some reports also name
// (drawn through chaffWith when it is set).
func (wm *webmail) run(ch *wmChain, times []int64, d symtab.ID,
	class ecosystem.CampaignClass, sink shardSink) {
	rng := &ch.rng
	evade := wm.evasion(class)
	for _, t := range times {
		sink.record(t, d)
		var inbox bool
		if ch.reported && t > ch.firstReport {
			// The domain is in the provider's filter now.
			inbox = !rng.Bool(wm.cfg.FilterAfterReport)
		} else {
			inbox = rng.Bool(evade)
		}
		if !inbox || !rng.Bool(wm.cfg.ReportProb) {
			continue
		}
		delay := rng.LogNormal(0, wm.cfg.ReportDelaySigma) * wm.cfg.ReportDelayMedianHours
		rt := t + int64(time.Duration(delay*float64(time.Hour)))
		if rt >= wm.windowEndN {
			continue
		}
		sink.report(rt, d)
		if !ch.reported || rt < ch.firstReport {
			ch.firstReport = rt
			ch.reported = true
		}
		if wm.chaffWith != nil && rng.Bool(wm.cfg.HuChaffProb) {
			if cd, ok := wm.chaffWith(rng); ok {
				sink.coReport(rt, cd)
			}
		}
	}
}

// enqueue appends one batch to its shard's queue. Callers must enqueue
// in canonical (campaign ID, slot) order — that order, not arrival
// timing, defines the chain semantics.
func (wm *webmail) enqueue(b wmBatch) {
	s := &wm.shards[wm.shardOfID(b.d)]
	s.pend = append(s.pend, b)
}

// flush drains every queued batch, running shards concurrently, then
// merges the buffered side effects serially in fixed shard order.
func (wm *webmail) flush(workers int) {
	startN := wm.oracle.Window.Start.UnixNano()
	endN := wm.oracle.Window.End.UnixNano()
	parallel.ForEach(workers, wmShardCount, func(si int) {
		s := &wm.shards[si]
		sink := shardSink{s: s, startN: startN, endN: endN}
		for i := range s.pend {
			b := &s.pend[i]
			if b.prefiltered {
				for _, t := range b.times {
					sink.record(t, b.d)
				}
				continue
			}
			wm.run(s.chain(wm, b.d), b.times, b.d, b.class, sink)
		}
		s.pend = s.pend[:0]
	})
	for si := range wm.shards {
		s := &wm.shards[si]
		for _, ev := range s.hu {
			wm.hu.ObserveID(ev.t, ev.d, 0)
		}
		s.hu = s.hu[:0]
		// Map iteration order is random, but integer addition into the
		// oracle is exact and commutative, so the merged counts do not
		// depend on it.
		for d, n := range s.oracle {
			wm.oracle.AddBulkID(d, n)
		}
		clear(s.oracle)
		wm.reports += s.reports
		s.reports = 0
	}
}
