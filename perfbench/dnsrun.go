package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/obs"
)

// dnsCfg sizes the DNSBL workload. Every count is fixed before the run
// starts, so two runs of one seed do the same work.
type dnsCfg struct {
	seed      uint64
	zoneNames [2]int
	// setupReps is how many times the serving set-up is built; the
	// median is reported and the last one serves the measured phase.
	setupReps int
	// warmQueries per client run before measuring, so the negative
	// cache, the CPU caches and the runtime's pacing settle first.
	warmQueries int
	// The measured phase is rounds rounds of a query window and then a
	// writer window, so a spell of host load that comes and goes
	// within a run lands on a few windows of each kind, not on one
	// whole phase.
	rounds int
	// queries is each client's fixed query count per query window.
	queries int
	// Each writer window applies batches delta batches of batchSize
	// records into zone 0, one due every interval from the window's
	// start whether or not the previous one has finished (an
	// open-loop writer).
	batches   int
	batchSize int
	interval  time.Duration
}

// queryTimeout is how long a client waits for an answer before it
// counts the query as failed.
const queryTimeout = time.Second

// clients is the number of closed-loop callers, one per vCPU of the
// 2-vCPU machine the benchmark was sized on: each keeps one query in
// flight, as an MTA waits for each lookup before accepting mail.
const clients = 2

// queryPerClientSecond sets the fixed per-client query count from the
// requested run length; it is a constant, not a measured rate, so the
// work per run never depends on the machine's speed.
const queryPerClientSecond = 35_000

// queryConfig is dnsblserve's serving shape with paper-sized zones, in
// 10 rounds; each writer window applies 5 delta batches of 256 names,
// one due every 300 ms: the slowest Apply seen on a 2-vCPU VM took
// 190 ms, so the writer keeps its schedule with room to spare.
func queryConfig(seed uint64, seconds int) dnsCfg {
	const rounds = 10
	return dnsCfg{
		seed:        seed,
		zoneNames:   [2]int{413_000, 145_000},
		setupReps:   7,
		warmQueries: 20_000,
		rounds:      rounds,
		queries:     queryPerClientSecond * seconds / rounds,
		batches:     5,
		batchSize:   256,
		interval:    300 * time.Millisecond,
	}
}

// serving is one built set-up: the plane, its metrics and its server.
type serving struct {
	plane *dnsblplane.Plane
	srv   *dnsblplane.Server
	addr  *net.UDPAddr
	total time.Duration // New through Listen
	load  time.Duration // the bulk Apply calls
}

// buildServing makes the set-up calls dnsblserve makes: New, the bulk
// Apply of every zone, Listen. Only those calls are timed.
func buildServing(cfg *dnsCfg, in *inputs, tr *tracer, rep int) (*serving, error) {
	zones := make([]dnsblplane.ZoneConfig, len(zoneSuffix))
	for z := range zones {
		zones[z] = dnsblplane.ZoneConfig{Suffix: zoneSuffix[z], Feeds: zoneFeeds[z]}
	}
	op := int64(rep)
	root := tr.begin(op, -1, "setup")
	defer tr.end(root)
	start := time.Now()
	id := tr.begin(op, root, "dnsblplane.new")
	p, err := dnsblplane.New(dnsblplane.Config{Zones: zones, Shards: 4, NegCacheSize: 512})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	p.Metrics = dnsblplane.WireMetrics(obs.NewRegistry())
	loadStart := time.Now()
	for z := range zones {
		id := tr.begin(op, root, "dnsblplane.load")
		err := p.Apply(zoneSuffix[z], in.zones[z])
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	load := time.Since(loadStart)
	srv := &dnsblplane.Server{Plane: p, Readers: 1, Workers: 4}
	id = tr.begin(op, root, "dnsblplane.listen")
	addr, err := srv.Listen("127.0.0.1:0")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &serving{plane: p, srv: srv, addr: addr.(*net.UDPAddr), total: time.Since(start), load: load}, nil
}

func (s *serving) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// clientStats is one client's tally.
type clientStats struct {
	lat                   []int64 // ns from send to verified answer
	sent, ok, nx          int64
	timeouts, wrong, shed int64
	firstErr              string
	// Traced runs also keep each query's span on the tracer clock
	// and its bytes, back to back in packets, ending at ends[i].
	spans   [][2]int64
	packets []byte
	ends    []int32
}

// runClient is one closed-loop caller: it sends a query, waits for the
// answer, verifies it, and only then sends the next, n times.
func runClient(conn *net.UDPConn, g *queryGen, n int, tr *tracer) *clientStats {
	st := &clientStats{lat: make([]int64, 0, n)}
	pkt := make([]byte, 0, 512)
	buf := make([]byte, 4096)
	reason := make([]byte, 0, 128)
	var refresh time.Time
	for i := 0; i < n; i++ {
		q := g.next()
		pkt = packQuery(pkt[:0], uint16(i), q.name, zoneSuffix[q.zone], q.qtype)
		if q.rec != nil {
			reason = appendReason(reason[:0], q.rec)
		}
		if tr.on {
			st.spans = append(st.spans, [2]int64{tr.now(), 0})
			st.packets = append(st.packets, pkt...)
			st.ends = append(st.ends, int32(len(st.packets)))
		}
		t0 := time.Now()
		if t0.After(refresh) {
			if err := conn.SetReadDeadline(t0.Add(queryTimeout)); err != nil {
				st.noteErr(err)
			}
			refresh = t0.Add(queryTimeout / 2)
		}
		st.sent++
		var resp []byte
		if _, err := conn.Write(pkt); err != nil {
			st.noteErr(err)
		} else {
			resp = readAnswer(conn, buf, pkt, st)
		}
		if resp == nil {
			st.timeouts++
			refresh = time.Time{}
			st.endSpan(tr)
			continue
		}
		switch out, nx := checkAnswer(pkt, resp, q.rec != nil, reason); out {
		case outOK:
			st.lat = append(st.lat, time.Since(t0).Nanoseconds())
			st.ok++
			if nx {
				st.nx++
			}
		case outShed:
			st.shed++
		default:
			st.wrong++
			st.noteErr(fmt.Errorf("wrong answer for %s.%s type %d", q.name, zoneSuffix[q.zone], q.qtype))
		}
		st.endSpan(tr)
	}
	return st
}

func (st *clientStats) endSpan(tr *tracer) {
	if tr.on {
		st.spans[len(st.spans)-1][1] = tr.now()
	}
}

// readAnswer reads until the answer to pkt arrives, skipping late
// answers to earlier queries that timed out; nil means the deadline
// passed first.
func readAnswer(conn *net.UDPConn, buf, pkt []byte, st *clientStats) []byte {
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				st.noteErr(err)
			}
			return nil
		}
		if n >= 2 && buf[0] == pkt[0] && buf[1] == pkt[1] {
			return buf[:n]
		}
	}
}

func (st *clientStats) noteErr(err error) {
	if st.firstErr == "" {
		st.firstErr = err.Error()
	}
}

// writerStats is the delta writer's tally over every writer window.
type writerStats struct {
	fresh    []int64 // ns from each batch's due time to its Apply returning
	apply    []int64 // ns inside each Apply
	alloc    []int64 // traced: bytes allocated during each Apply
	late     time.Duration
	probes   int64
	probeBad int64
}

// runWriter is one writer window: it applies batches into zone 0 on
// their fixed schedule, the first due at once, and adds to ws. After
// each Apply returns it sends one probe query for a name of that
// batch, which must already answer "listed". first numbers the
// window's first batch within the run.
func runWriter(cfg *dnsCfg, batches [][]dnsblplane.Record, first int, sv *serving, tr *tracer, ws *writerStats) error {
	conn, err := net.DialUDP("udp", nil, sv.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	probe := &clientStats{}
	pkt := make([]byte, 0, 512)
	buf := make([]byte, 4096)
	start := time.Now()
	for i, batch := range batches {
		b := first + i
		due := start.Add(time.Duration(i) * cfg.interval)
		time.Sleep(time.Until(due))
		op := int64(1_000_000 + b)
		root := tr.begin(op, -1, "writer.batch")
		t0 := time.Now()
		ws.late = max(ws.late, t0.Sub(due))
		var before rtStats
		if tr.on {
			before = readRuntime()
		}
		id := tr.begin(op, root, "dnsblplane.apply")
		err := sv.plane.Apply(zoneSuffix[0], batch)
		tr.end(id)
		t1 := time.Now()
		if tr.on {
			ws.alloc = append(ws.alloc, int64(readRuntime().sub(before).allocBytes))
		}
		if err != nil {
			return err
		}
		ws.fresh = append(ws.fresh, t1.Sub(due).Nanoseconds())
		ws.apply = append(ws.apply, t1.Sub(t0).Nanoseconds())

		id = tr.begin(op, root, "client.probe")
		rec := &batch[b%len(batch)]
		pkt = packQuery(pkt[:0], uint16(b), rec.Domain, zoneSuffix[0], typeA)
		ws.probes++
		var resp []byte
		if err := conn.SetReadDeadline(time.Now().Add(queryTimeout)); err == nil {
			if _, err := conn.Write(pkt); err == nil {
				resp = readAnswer(conn, buf, pkt, probe)
			}
		}
		if resp == nil {
			ws.probeBad++
		} else if out, _ := checkAnswer(pkt, resp, true, nil); out != outOK {
			ws.probeBad++
		}
		tr.end(id)
		tr.end(root)
	}
	return nil
}

// queryWindow runs every client at once for n queries, each on its own
// socket and query stream, and returns their tallies.
func queryWindow(conns []*net.UDPConn, gens []*queryGen, n int, tr *tracer) []*clientStats {
	stats := make([]*clientStats, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = runClient(conns[c], gens[c], n, tr)
		}(c)
	}
	wg.Wait()
	return stats
}

// runDNSBL runs the DNSBL workload: build the serving set-up setupReps
// times, warm the last one up with the closed-loop clients, then run
// the rounds of a query window and a writer window.
func runDNSBL(res *result, tr *tracer, cfg dnsCfg) error {
	in := genInputs(&cfg)
	var sv *serving
	var setups, loads []int64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if sv != nil {
			if err := sv.shutdown(); err != nil {
				return err
			}
		}
		sv = nil
		// Every set-up starts cold, as a fresh dnsblserve does: garbage
		// collected and its memory handed back to the OS.
		debug.FreeOSMemory()
		var err error
		if sv, err = buildServing(&cfg, in, tr, rep); err != nil {
			return err
		}
		setups = append(setups, sv.total.Nanoseconds())
		loads = append(loads, sv.load.Nanoseconds())
	}
	defer sv.shutdown() //nolint:errcheck // shut down again on error paths; idempotent
	m := sv.plane.Metrics

	conns := make([]*net.UDPConn, clients)
	gens := make([]*queryGen, clients)
	for c := range conns {
		conn, err := net.DialUDP("udp", nil, sv.addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conns[c] = conn
		gens[c] = newQueryGen(&cfg, in, c)
	}
	warm := queryWindow(conns, gens, cfg.warmQueries, newTracer(false))

	var (
		stats   []*clientStats // every measured window's tallies
		elapsed time.Duration
		cpu     float64
		gc      rtStats
		negHits int64
		ws      = &writerStats{}
	)
	records0 := m.ReloadRecords.Value()
	steal := startSteal()
	for r := 0; r < cfg.rounds; r++ {
		// Every window starts from a collected heap: the garbage the
		// writer leaves is never collected during a query window, and
		// the batches that meet the collector fall at the same places
		// in every run.
		runtime.GC()
		negHits0 := m.NegHits.Value()
		cpu0, rt0 := cpuSeconds(), readRuntime()
		start := time.Now()
		w := queryWindow(conns, gens, cfg.queries, tr)
		elapsed += time.Since(start)
		cpu += cpuSeconds() - cpu0
		rt := readRuntime().sub(rt0)
		gc.gcCycles, gc.gcCPU = gc.gcCycles+rt.gcCycles, gc.gcCPU+rt.gcCPU
		negHits += m.NegHits.Value() - negHits0
		stats = append(stats, w...)

		runtime.GC()
		b := r * cfg.batches
		if err := runWriter(&cfg, in.deltas[b:b+cfg.batches], b, sv, tr, ws); err != nil {
			return fmt.Errorf("writer: %w", err)
		}
	}
	stealPct := steal.pct()
	readBatch := m.ReadBatch.Sum() / float64(max(m.ReadBatch.Count(), 1))
	reloaded := m.ReloadRecords.Value() - records0
	shedCount, dropped := m.Shed.Value(), m.Dropped.Value()
	if err := sv.shutdown(); err != nil {
		return err
	}

	// Warm-up queries count as attempted and, if they fail, as
	// failed; only measured ones give latency and throughput.
	var lat []int64
	var ok, nx, timeouts, wrong, shed int64
	for i, st := range append(warm, stats...) {
		if i >= len(warm) {
			lat = append(lat, st.lat...)
			ok, nx = ok+st.ok, nx+st.nx
		}
		res.Attempted += st.sent
		timeouts, wrong, shed = timeouts+st.timeouts, wrong+st.wrong, shed+st.shed
		if st.firstErr != "" {
			res.Diag["client_error"] = st.firstErr
		}
	}
	res.Attempted += ws.probes
	res.Failed = timeouts + wrong + shed + ws.probeBad
	if wrong > 0 {
		res.fail("%d wrong answers", wrong)
	}
	if ws.probeBad > 0 {
		res.fail("%d of %d visibility probes not answered listed", ws.probeBad, ws.probes)
	}
	if len(lat) == 0 || len(ws.fresh) == 0 {
		return errors.New("no query was answered or no batch applied")
	}
	slices.Sort(lat)
	p50, _ := nearestRank(lat, 0.50)
	p99, beyond := nearestRank(lat, 0.99)
	res.Diag["latency_samples"] = len(lat)
	res.Diag["latency_p99_ms"] = float64(p99) / 1e6
	res.Diag["latency_p99_beyond"] = beyond
	res.Diag["setup_reps_s"] = seconds(setups)
	res.Diag["load_reps_s"] = seconds(loads)
	res.Diag["fresh_ms"] = millis(ws.fresh)
	res.Diag["latency_p50_ms"] = float64(p50) / 1e6
	res.Diag["qps"] = float64(ok) / elapsed.Seconds()
	res.Diag["elapsed_s"] = elapsed.Seconds()
	res.Diag["cpu_s"] = cpu
	res.Diag["steal_pct"] = stealPct

	if !tr.on {
		res.set("setup_s", time.Duration(median(setups)).Seconds())
		res.set("peak_rss_mb", peakRSSMiB())
		res.set("latency_p50_ms", res.Diag["latency_p50_ms"].(float64))
		res.set("ops_per_cpu_s", float64(ok)/cpu)
		res.set("freshness_p50_ms", float64(median(ws.fresh))/1e6)
		return nil
	}

	respond := replay(sv.plane, stats)
	res.set("dnsblplane.load_s", time.Duration(median(loads)).Seconds())
	res.set("dnsblplane.respond_ns", float64(respond))
	res.set("dnsblplane.serve_overhead_us", float64(p50-respond)/1e3)
	res.set("dnsblplane.read_batch_mean", readBatch)
	if nx > 0 {
		res.set("dnsblplane.neg_hit_ratio", float64(negHits)/float64(nx))
	}
	res.set("dnsblplane.apply_ms", float64(median(ws.apply))/1e6)
	res.set("dnsblplane.apply_alloc_mb", float64(median(ws.alloc))/(1<<20))
	res.set("dnsblplane.reload_records", float64(reloaded))
	res.set("writer.late_ms", float64(ws.late)/1e6)
	res.set("dnsblplane.shed", float64(shedCount))
	res.set("dnsblplane.dropped", float64(dropped))
	res.set("client.timeouts", float64(timeouts))
	res.set("client.wrong", float64(wrong))
	res.set("runtime.gc_cycles", float64(gc.gcCycles))
	res.set("runtime.gc_cpu_s", gc.gcCPU)
	traceQueries(tr, stats)
	return nil
}

func seconds(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e9
	}
	return out
}

func millis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// replayGroup is how many consecutive queries one timing covers in
// the replay: a single Respond call is too short to time alone.
const replayGroup = 16

// replay answers every query the clients sent again, in-process
// through a Responder, and returns the median time per query over
// groups of replayGroup consecutive queries.
func replay(p *dnsblplane.Plane, stats []*clientStats) int64 {
	r := dnsblplane.NewResponder(p)
	out := make([]byte, 0, 512)
	var samples []int64
	for _, st := range stats {
		from := int32(0)
		for i := 0; i+replayGroup <= len(st.ends); i += replayGroup {
			t0 := time.Now()
			for _, end := range st.ends[i : i+replayGroup] {
				out = r.Respond(out[:0], st.packets[from:end])
				from = end
			}
			samples = append(samples, time.Since(t0).Nanoseconds()/replayGroup)
		}
	}
	if len(samples) == 0 {
		return 0
	}
	return median(samples)
}

// traceQueries adds the first queries of each client in each window to
// the trace as one-span ops; the rest are summarized by the latency
// metrics rather than written out, which would take hundreds of
// megabytes.
func traceQueries(tr *tracer, stats []*clientStats) {
	const keep = 100
	for c, st := range stats {
		for i, s := range st.spans[:min(keep, len(st.spans))] {
			tr.add(int64(c+1)<<32|int64(i), -1, "client.query", s[0], s[1])
		}
	}
}
