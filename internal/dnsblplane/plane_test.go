package dnsblplane

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simclock"
)

// fakeClock is the injected time source for negative-cache tests (the
// plane is engine-tier: no wall clock, even in tests).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: simclock.PaperStart} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testFeed builds a feed with n listed domains named spam00..spamNN.
func testFeed(name string, n int) *feeds.Feed {
	f := feeds.New(name, feeds.KindBlacklist, false, false)
	for i := 0; i < n; i++ {
		f.ObserveOnce(simclock.PaperStart.Add(time.Duration(i)*time.Minute),
			domain.Name(fmt.Sprintf("spam%02d.example", i)))
	}
	return f
}

// newTestPlane builds a single-zone plane over the feed. negSize < 0
// disables the negative cache (byte-parity tests want every query to
// take the live path).
func newTestPlane(t *testing.T, zone string, f *feeds.Feed, negSize int) *Plane {
	t.Helper()
	p, err := New(Config{
		Zones:        []ZoneConfig{{Suffix: zone}},
		NegCacheSize: negSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Metrics = WireMetrics(obs.NewRegistry())
	if _, err := p.LoadFeed(zone, f); err != nil {
		t.Fatal(err)
	}
	return p
}

// readWireGolden reads a wire golden: one hex-encoded response per
// line, "drop" for a query that gets no response.
func readWireGolden(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "drop" {
			out = append(out, nil)
			continue
		}
		b, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, b)
	}
	return out
}

// TestParityWithLegacyServer locks the plane's wire behaviour to the
// single-feed server it replaced. That server's responses to these
// queries were captured in testdata/legacy_wire.golden before it was
// deleted; for every query shape the plane must produce the same
// response (or also drop). The plane is a reimplementation for
// throughput, not a semantics change.
func TestParityWithLegacyServer(t *testing.T) {
	plane := newTestPlane(t, "dbl.test", testFeed("dbl", 8), -1)

	queries := [][]byte{
		// Listed / unlisted A and TXT.
		appendQuery(nil, 1, "spam00.example", "dbl.test", 1),
		appendQuery(nil, 2, "spam07.example", "dbl.test", 16),
		appendQuery(nil, 3, "benign.example", "dbl.test", 1),
		appendQuery(nil, 4, "benign.example", "dbl.test", 16),
		// Listed name, qtype with no data: NOERROR, empty answer.
		appendQuery(nil, 5, "spam01.example", "dbl.test", 15),
		// Outside the zone: REFUSED.
		appendQuery(nil, 6, "spam00.example", "other.zone", 1),
		// The zone apex itself (no domain part) is outside the zone.
		appendQuery(nil, 7, "dbl", "test", 1),
		// 0x20-style mixed casing must match case-insensitively and echo
		// the client's exact bytes.
		appendQuery(nil, 8, "SpAm00.ExAmPlE", "DbL.TeSt", 1),
		appendQuery(nil, 9, "SPAM02.EXAMPLE", "dbl.test", 16),
	}
	// Non-IN class: NXDOMAIN.
	chaos := appendQuery(nil, 10, "spam00.example", "dbl.test", 1)
	chaos[len(chaos)-1] = 3 // CLASS CH
	queries = append(queries, chaos)
	// Recursion-desired bit off.
	noRD := appendQuery(nil, 11, "spam03.example", "dbl.test", 1)
	noRD[2] = 0
	queries = append(queries, noRD)
	// Malformed shapes: truncated header, QR already set, junk.
	queries = append(queries,
		[]byte{0, 1, 0},
		func() []byte {
			q := appendQuery(nil, 12, "spam00.example", "dbl.test", 1)
			q[2] |= 0x80
			return q
		}(),
		[]byte("not a dns packet at all"),
	)
	// Multi-question and nonzero opcode take the slow path; both sides
	// must agree (FORMERR).
	multi := appendQuery(nil, 13, "a.example", "dbl.test", 1)
	multi[5] = 2
	multi = appendLabels(multi, "b.example.dbl.test")
	multi = append(multi, 0, 0, 1, 0, 1)
	queries = append(queries, multi)
	// A truncated second question: both sides must drop.
	halfMulti := appendQuery(nil, 15, "a.example", "dbl.test", 1)
	halfMulti[5] = 2
	queries = append(queries, halfMulti)
	opcode := appendQuery(nil, 14, "spam00.example", "dbl.test", 1)
	opcode[2] |= 1 << 3 // IQUERY
	queries = append(queries, opcode)

	golden := readWireGolden(t, "testdata/legacy_wire.golden")
	if len(golden) != len(queries) {
		t.Fatalf("golden holds %d responses for %d queries", len(golden), len(queries))
	}
	for i, q := range queries {
		want := golden[i]
		got := plane.Handle(q)
		if (got == nil) != (want == nil) {
			t.Errorf("query %d: plane dropped=%t, legacy dropped=%t", i, got == nil, want == nil)
			continue
		}
		if got == nil {
			continue
		}
		// The legacy packer writes answer names uncompressed while the
		// plane's fast path uses a compression pointer — both legal wire
		// forms of the same message. Compare the decoded messages, and
		// require byte identity whenever there is no answer section (the
		// echo-based fast path and the negative cache depend on it).
		wantMsg, errW := dnsbl.Unpack(want)
		gotMsg, errG := dnsbl.Unpack(got)
		if errW != nil || errG != nil {
			t.Errorf("query %d: unpack failed (plane: %v, legacy: %v)", i, errG, errW)
			continue
		}
		if !reflect.DeepEqual(gotMsg, wantMsg) {
			t.Errorf("query %d: plane response diverges from legacy server\n  query: %x\n  plane: %+v\n  legacy: %+v",
				i, q, gotMsg, wantMsg)
		}
		if len(wantMsg.Answers) == 0 && !bytes.Equal(got, want) {
			t.Errorf("query %d: answerless responses not byte-identical\n  plane: %x\n  legacy: %x",
				i, got, want)
		}
	}
}

// TestRespondDeterministic: the same query against the same state is
// byte-identical — the purity contract the chaos oracle relies on.
func TestRespondDeterministic(t *testing.T) {
	plane := newTestPlane(t, "dbl.test", testFeed("dbl", 4), -1)
	q := appendQuery(nil, 77, "spam02.example", "dbl.test", 16)
	first := plane.Handle(q)
	for i := 0; i < 10; i++ {
		if got := plane.Handle(q); !bytes.Equal(got, first) {
			t.Fatalf("response %d differs from first", i)
		}
	}
}

// TestShardCountsAgree: answers must not depend on the shard count.
func TestShardCountsAgree(t *testing.T) {
	feed := testFeed("dbl", 32)
	queries := make([][]byte, 0, 40)
	for i := 0; i < 32; i++ {
		queries = append(queries,
			appendQuery(nil, uint16(i), fmt.Sprintf("spam%02d.example", i), "dbl.test", 1))
	}
	queries = append(queries, appendQuery(nil, 99, "missing.example", "dbl.test", 1))

	var want [][]byte
	for _, shards := range []int{1, 2, 4, 16} {
		p, err := New(Config{
			Zones:        []ZoneConfig{{Suffix: "dbl.test"}},
			Shards:       shards,
			NegCacheSize: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadFeed("dbl.test", feed); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			for _, q := range queries {
				want = append(want, p.Handle(q))
			}
			continue
		}
		for i, q := range queries {
			if got := p.Handle(q); !bytes.Equal(got, want[i]) {
				t.Fatalf("shards=%d query %d: response differs from shards=1", shards, i)
			}
		}
	}
}

// TestMultiZoneLongestSuffix: overlapping zones resolve to the longest
// matching suffix, and each zone answers from its own index.
func TestMultiZoneLongestSuffix(t *testing.T) {
	p, err := New(Config{
		Zones: []ZoneConfig{{Suffix: "dbl.test"}, {Suffix: "sub.dbl.test"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	when := simclock.PaperStart
	if err := p.Apply("dbl.test", []Record{{Domain: "outer.example", First: when, Feed: "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply("sub.dbl.test", []Record{{Domain: "inner.example", First: when, Feed: "b"}}); err != nil {
		t.Fatal(err)
	}

	// inner.example.sub.dbl.test belongs to the longer zone: listed.
	resp := p.Handle(appendQuery(nil, 1, "inner.example", "sub.dbl.test", 1))
	if rcode := resp[3] & 0x0f; rcode != 0 {
		t.Fatalf("inner.example.sub.dbl.test: rcode %d, want NOERROR", rcode)
	}
	// inner.example.dbl.test is a different name in the outer zone: not
	// listed there.
	resp = p.Handle(appendQuery(nil, 2, "inner.example", "dbl.test", 1))
	if rcode := resp[3] & 0x0f; rcode != 3 {
		t.Fatalf("inner.example.dbl.test: rcode %d, want NXDOMAIN", rcode)
	}
	// outer.example.dbl.test is listed in the outer zone.
	resp = p.Handle(appendQuery(nil, 3, "outer.example", "dbl.test", 1))
	if rcode := resp[3] & 0x0f; rcode != 0 {
		t.Fatalf("outer.example.dbl.test: rcode %d, want NOERROR", rcode)
	}
}

// TestLookupAndListed exercises the oracle entry points.
func TestLookupAndListed(t *testing.T) {
	feed := testFeed("dbl", 5)
	p := newTestPlane(t, "dbl.test", feed, 0)

	n, err := p.Listed("dbl.test")
	if err != nil || n != 5 {
		t.Fatalf("Listed = %d, %v; want 5, nil", n, err)
	}
	listed, first, fname, err := p.Lookup("dbl.test", "spam03.example")
	if err != nil || !listed {
		t.Fatalf("Lookup(spam03) = %v, %v; want listed", listed, err)
	}
	wantFirst := simclock.PaperStart.Add(3 * time.Minute)
	if !first.Equal(wantFirst) || fname != "dbl" {
		t.Fatalf("Lookup(spam03) = %v by %q; want %v by dbl", first, fname, wantFirst)
	}
	if listed, _, _, _ := p.Lookup("dbl.test", "nope.example"); listed {
		t.Fatal("nope.example reported listed")
	}
	if _, _, _, err := p.Lookup("other.zone", "x"); err == nil {
		t.Fatal("Lookup on unknown zone did not error")
	}
	if _, err := p.Listed("other.zone"); err == nil {
		t.Fatal("Listed on unknown zone did not error")
	}
}

// TestApplyEarliestWins: re-applying a domain keeps the earlier
// first-seen time regardless of arrival order, matching feeds.Feed's
// min-time dedup.
func TestApplyEarliestWins(t *testing.T) {
	early := simclock.PaperStart
	late := early.Add(48 * time.Hour)
	for name, order := range map[string][]time.Time{
		"early-then-late": {early, late},
		"late-then-early": {late, early},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
			if err != nil {
				t.Fatal(err)
			}
			for _, when := range order {
				if err := p.Apply("dbl.test", []Record{{Domain: "spam.example", First: when, Feed: "dbl"}}); err != nil {
					t.Fatal(err)
				}
			}
			_, first, _, _ := p.Lookup("dbl.test", "spam.example")
			if !first.Equal(early) {
				t.Fatalf("first = %v, want the earlier %v", first, early)
			}
		})
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoZones {
		t.Fatalf("no zones: err = %v, want ErrNoZones", err)
	}
	if _, err := New(Config{Zones: []ZoneConfig{{Suffix: "a.test"}, {Suffix: "A.test."}}}); err == nil {
		t.Fatal("duplicate zone (case/dot-insensitive) not rejected")
	}
	if _, err := New(Config{Zones: []ZoneConfig{{Suffix: "."}}}); err == nil {
		t.Fatal("empty zone suffix not rejected")
	}
	if err := mustPlane(t).Apply("missing.zone", nil); err == nil {
		t.Fatal("Apply on unknown zone did not error")
	}
}

func mustPlane(t *testing.T) *Plane {
	t.Helper()
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNegativeCache: repeated misses hit the per-shard cache, entries
// expire on the injected clock, and a reload (generation bump)
// invalidates cached misses immediately — a freshly listed domain must
// never be answered from a stale NXDOMAIN.
func TestNegativeCache(t *testing.T) {
	clk := newFakeClock()
	p, err := New(Config{
		Zones:  []ZoneConfig{{Suffix: "dbl.test"}},
		NegTTL: 30 * time.Second,
		Clock:  clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Metrics = WireMetrics(obs.NewRegistry())

	q := appendQuery(nil, 1, "miss.example", "dbl.test", 1)
	first := p.Handle(q)
	if rcode := first[3] & 0x0f; rcode != 3 {
		t.Fatalf("miss rcode = %d, want NXDOMAIN", rcode)
	}
	if got := p.Metrics.NegHits.Value(); got != 0 {
		t.Fatalf("neg hits after first miss = %d, want 0", got)
	}
	second := p.Handle(q)
	if !bytes.Equal(second, first) {
		t.Fatal("cached miss differs from live miss")
	}
	if got := p.Metrics.NegHits.Value(); got != 1 {
		t.Fatalf("neg hits after second miss = %d, want 1", got)
	}

	// A different ID with RD clear must come back patched, not echoing
	// the cached query's ID/RD.
	q2 := appendQuery(nil, 2, "miss.example", "dbl.test", 1)
	q2[2] = 0 // RD off
	resp := p.Handle(q2)
	if resp[0] != q2[0] || resp[1] != q2[1] {
		t.Fatal("cached response did not patch the query ID")
	}
	if resp[2]&0x01 != 0 {
		t.Fatal("cached response did not patch RD through")
	}

	// TTL expiry: past NegTTL the cache must re-answer live.
	clk.advance(31 * time.Second)
	hits := p.Metrics.NegHits.Value()
	p.Handle(q)
	if got := p.Metrics.NegHits.Value(); got != hits {
		t.Fatalf("expired entry served from cache (neg hits %d -> %d)", hits, got)
	}

	// Reload invalidation: listing the domain bumps the shard
	// generation, so the stale NXDOMAIN must not be served.
	if err := p.Apply("dbl.test", []Record{{Domain: "miss.example", First: simclock.PaperStart, Feed: "dbl"}}); err != nil {
		t.Fatal(err)
	}
	resp = p.Handle(q)
	if rcode := resp[3] & 0x0f; rcode != 0 {
		t.Fatalf("freshly listed domain answered rcode %d from stale cache, want NOERROR", rcode)
	}
}

// TestNegativeCacheKeysOnExactCasing: the cache echoes each client's
// own 0x20 casing — a cached answer for one casing must not leak into
// another.
func TestNegativeCacheKeysOnExactCasing(t *testing.T) {
	clk := newFakeClock()
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	p.Metrics = WireMetrics(obs.NewRegistry())
	lower := appendQuery(nil, 1, "miss.example", "dbl.test", 1)
	upper := appendQuery(nil, 2, "MiSs.ExAmPlE", "dbl.test", 1)
	p.Handle(lower)
	p.Handle(upper) // must not be served from lower's entry
	respU := p.Handle(upper)
	respL := p.Handle(lower)
	if !bytes.Contains(respU, []byte("MiSs")) {
		t.Fatal("mixed-case response lost the client's casing")
	}
	if !bytes.Contains(respL, []byte("miss")) {
		t.Fatal("lower-case response lost the client's casing")
	}
	if got := p.Metrics.NegHits.Value(); got != 2 {
		t.Fatalf("neg hits = %d, want 2 (one per casing)", got)
	}
}

// TestMetricsWiring: counters move on the paths they claim to count.
func TestMetricsWiring(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0)
	p.Handle(appendQuery(nil, 1, "spam00.example", "dbl.test", 1))
	p.Handle(appendQuery(nil, 2, "miss.example", "dbl.test", 1))
	p.Handle([]byte{1, 2}) // dropped
	if got := p.Metrics.Queries.Value(); got != 3 {
		t.Errorf("queries = %d, want 3", got)
	}
	if got := p.Metrics.Hits.Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := p.Metrics.Dropped.Value(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := p.Metrics.ReloadBatches.Value(); got != 1 {
		t.Errorf("reload batches = %d, want 1", got)
	}
	if got := p.Metrics.ReloadRecords.Value(); got != 2 {
		t.Errorf("reload records = %d, want 2", got)
	}
}
