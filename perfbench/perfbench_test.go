package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/simulate"
)

func TestNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      int64
		beyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0.0001, 1, 999},
	} {
		v, beyond := nearestRank(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("q=%v: got (%d, %d beyond), want (%d, %d beyond)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := nearestRank([]int64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("one sample: got (%d, %d)", v, beyond)
	}
	if v, beyond := nearestRank(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("no samples: got (%d, %d)", v, beyond)
	}
	if m := median([]int64{9, 1, 5}); m != 5 {
		t.Errorf("median = %d, want 5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] that overlap,
	// and c [90,120] that runs past it; a has a child [15,25].
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 90, End: 120},
		{ID: 4, Parent: 1, Start: 15, End: 25},
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 10}
	if !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// Only the root with children counts: it is 40% unexplained.
	if s := layerShare(spans); s != 60 {
		t.Errorf("layerShare = %v, want 60", s)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin(0, -1, "x")
	tr.end(id)
	tr.add(0, -1, "y", 1, 2)
	if id != -1 || len(tr.spans()) != 0 {
		t.Fatalf("tracing off recorded spans: id %d, %v", id, tr.spans())
	}
}

func tinyDNSConfig(seed uint64) dnsCfg {
	cfg := queryConfig(seed, 1)
	cfg.zoneNames = [2]int{3000, 1000}
	cfg.setupReps = 2
	cfg.warmQueries = 200
	cfg.rounds = 2
	cfg.queries = 750
	cfg.batches = 2
	cfg.batchSize = 32
	cfg.interval = 10 * time.Millisecond
	return cfg
}

func TestInputsDeterministic(t *testing.T) {
	a, b := tinyDNSConfig(7), tinyDNSConfig(7)
	ia, ib := genInputs(&a), genInputs(&b)
	if !slices.Equal(ia.zones[0], ib.zones[0]) || !slices.Equal(ia.zones[1], ib.zones[1]) ||
		!slices.Equal(ia.repeat[0], ib.repeat[0]) {
		t.Fatal("same seed gave different names")
	}
	for i := range ia.deltas {
		if !slices.Equal(ia.deltas[i], ib.deltas[i]) {
			t.Fatalf("same seed gave a different delta batch %d", i)
		}
	}
	ga, gb := newQueryGen(&a, ia, 1), newQueryGen(&b, ib, 1)
	for i := 0; i < 500; i++ {
		qa, qb := ga.next(), gb.next()
		if qa.name != qb.name || qa.qtype != qb.qtype || qa.zone != qb.zone || (qa.rec == nil) != (qb.rec == nil) {
			t.Fatalf("query %d differs: %+v vs %+v", i, qa, qb)
		}
	}

	c := tinyDNSConfig(8)
	if ic := genInputs(&c); slices.Equal(ia.zones[0], ic.zones[0]) {
		t.Fatal("different seeds gave the same names")
	}

	// Listed names, misses and deltas never collide, and every name is
	// one valid DNS name.
	seen := map[string]bool{}
	add := func(name string) {
		if seen[name] {
			t.Fatalf("name %q generated twice", name)
		}
		seen[name] = true
		for _, l := range strings.Split(name, ".") {
			if l == "" || len(l) > 63 {
				t.Fatalf("bad label in %q", name)
			}
		}
	}
	for z := range ia.zones {
		for _, r := range ia.zones[z] {
			add(r.Domain)
		}
		for _, n := range ia.repeat[z] {
			add(n)
		}
	}
	for _, batch := range ia.deltas {
		for _, r := range batch {
			add(r.Domain)
		}
	}
	for i := 0; i < 2000; i++ {
		if q := ga.next(); q.rec == nil && strings.Contains(q.name, "u.") {
			add(q.name)
		}
	}
}

// TestCheckAnswer answers packed queries with the program's own
// Responder and checks the benchmark's verdicts, including an oracle
// entry planted wrong on purpose.
func TestCheckAnswer(t *testing.T) {
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{
		{Suffix: zoneSuffix[0], Feeds: zoneFeeds[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := dnsblplane.Record{Domain: "pills42p.com", First: time.Unix(listStart+3600, 0).UTC(), Feed: "mx1"}
	if err := p.Apply(zoneSuffix[0], []dnsblplane.Record{rec}); err != nil {
		t.Fatal(err)
	}
	r := dnsblplane.NewResponder(p)
	ask := func(name string, qtype uint16) (q, resp []byte) {
		q = packQuery(nil, 0x1234, name, zoneSuffix[0], qtype)
		return q, r.Respond(nil, q)
	}
	reason := appendReason(nil, &rec)
	if string(reason) != "listed 2010-08-01T01:00:00Z by mx1" {
		t.Fatalf("reason = %q", reason)
	}
	planted := rec
	planted.Feed = "dbl"
	wrongReason := appendReason(nil, &planted)

	qA, rA := ask(rec.Domain, typeA)
	qT, rT := ask(rec.Domain, typeTXT)
	qN, rN := ask("nothere9u.com", typeA)
	for _, c := range []struct {
		name    string
		q, resp []byte
		listed  bool
		reason  []byte
		out     outcome
		nx      bool
	}{
		{"listed A", qA, rA, true, reason, outOK, false},
		{"listed TXT", qT, rT, true, reason, outOK, false},
		{"unlisted", qN, rN, false, nil, outOK, true},
		{"planted wrong feed", qT, rT, true, wrongReason, outWrong, false},
		{"listed but oracle says unlisted", qA, rA, false, nil, outWrong, false},
		{"unlisted but oracle says listed", qN, rN, true, nil, outWrong, false},
		{"answer to another query", qT, rA, true, reason, outWrong, false},
		{"truncated", qA, rA[:len(rA)-1], true, reason, outWrong, false},
		{"shed", qA, append([]byte{0x12, 0x34, 0x84, rcodeServFail}, make([]byte, 8)...), true, reason, outShed, false},
	} {
		out, nx := checkAnswer(c.q, c.resp, c.listed, c.reason)
		if out != c.out || nx != c.nx {
			t.Errorf("%s: got (%d, nx=%v), want (%d, nx=%v)", c.name, out, nx, c.out, c.nx)
		}
	}
}

func TestSmokeDNSBL(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := newResult()
		if err := runDNSBL(res, newTracer(trace), tinyDNSConfig(11)); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		checkSmoke(t, res, trace)
	}
}

func TestSmokeTasters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced reproduction twice")
	}
	cfg := tastersConfig(3)
	cfg.scenario, cfg.setupReps = simulate.Small, 3
	var digests []any
	for _, trace := range []bool{false, true} {
		res := newResult()
		if err := runTasters(res, newTracer(trace), cfg); err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, res, trace)
		digests = append(digests, res.Diag["report_sha256"])
	}
	if digests[0] != digests[1] {
		t.Fatalf("tracing changed the report: %v vs %v", digests[0], digests[1])
	}
}

// checkSmoke asserts a run passed its own checks and reported its
// full metric set.
func checkSmoke(t *testing.T, res *result, trace bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: correct=%v attempted=%d failed=%d diag=%v",
			res.Correct, res.Attempted, res.Failed, res.Diag)
	}
	want := endToEnd
	if trace {
		res.fillLayers()
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables, which give every reported unit, in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the tables %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the table %s (%s)",
					c.kind, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"tasters_cold", "dnsbl_query"}) {
		t.Errorf("workloads = %v", names)
	}
}
