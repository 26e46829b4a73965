package dnsblplane

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// queryServer sends one query over UDP and returns the response (nil
// on timeout).
func queryServer(t *testing.T, addr net.Addr, q []byte, timeout time.Duration) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(overload.WallClock().Add(timeout)) //nolint:errcheck
	if _, err := conn.Write(q); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil
	}
	return buf[:n]
}

// TestServerServesOverUDP: the batched pipeline answers real datagrams
// with the same bytes the plane computes in-process.
func TestServerServesOverUDP(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 4), 0)
	srv := &Server{Plane: p, Readers: 2, Workers: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i, q := range [][]byte{
		appendQuery(nil, 1, "spam00.example", "dbl.test", 1),
		appendQuery(nil, 2, "spam01.example", "dbl.test", 16),
		appendQuery(nil, 3, "missing.example", "dbl.test", 1),
		appendQuery(nil, 4, "spam00.example", "other.zone", 1),
	} {
		want := p.Handle(q)
		got := queryServer(t, addr, q, 2*time.Second)
		if got == nil {
			t.Fatalf("query %d: no answer over UDP", i)
		}
		if string(got) != string(want) {
			t.Fatalf("query %d: UDP answer differs from in-process Handle\n  got:  %x\n  want: %x", i, got, want)
		}
	}
}

// TestServerShutdownDrains: Shutdown stops intake, answers what was
// admitted, and releases every goroutine the server started.
func TestServerShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	p := newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0)
	srv := &Server{Plane: p, Readers: 2, Workers: 4}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := queryServer(t, addr, appendQuery(nil, 1, "spam00.example", "dbl.test", 1), 2*time.Second); got == nil {
		t.Fatal("no answer before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Fully stopped: the socket is gone, so a query gets no answer.
	if got := queryServer(t, addr, appendQuery(nil, 2, "spam00.example", "dbl.test", 1), 200*time.Millisecond); got != nil {
		t.Fatalf("answered after shutdown: %x", got)
	}

	// Goroutine-leak check: wait (bounded) for the count to settle back.
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		select {
		case <-deadline.C:
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		default:
			runtime.Gosched()
		}
	}

	// Shutdown is idempotent, and Close after Shutdown is a no-op.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}
}

// TestServerReleasesPlaneOnShutdown: once a shut-down server is
// dropped, the first collection frees its plane. The runtime keeps
// every sync.Pool it has seen in use until the second collection after
// that, so a pool held inside the Server kept the Server, its Plane
// and every snapshot alive through one more collection.
func TestServerReleasesPlaneOnShutdown(t *testing.T) {
	freed := make(chan struct{})
	func() {
		p := newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0)
		runtime.SetFinalizer(p, func(*Plane) { close(freed) })
		srv := &Server{Plane: p}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if got := queryServer(t, addr, appendQuery(nil, 1, "spam00.example", "dbl.test", 1), 2*time.Second); got == nil {
			t.Fatal("no answer before shutdown")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	runtime.GC()
	deadline := time.NewTimer(2 * time.Second)
	defer deadline.Stop()
	select {
	case <-freed:
	case <-deadline.C:
		t.Fatal("the plane outlived the first collection after its server shut down")
	}
}

// TestServeLoopAllocs: once warm, the serving loop allocates nothing
// per datagram. The reader and the workers carry the sender as a
// netip.AddrPort, not a net.Addr, and the buffers cycle through the
// pool. The race detector makes sync.Pool drop buffers at random, so
// the count is only meaningful without it.
func TestServeLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 4), 0)
	srv := &Server{Plane: p, Workers: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(overload.WallClock().Add(10 * time.Second)) //nolint:errcheck
	qs := [][]byte{
		appendQuery(nil, 1, "spam00.example", "dbl.test", 1),
		appendQuery(nil, 2, "spam01.example", "dbl.test", 16),
		appendQuery(nil, 3, "missing.example", "dbl.test", 1),
	}
	buf := make([]byte, 4096)
	ask := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Read(buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	ask(300)
	const n = 3000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	ask(n)
	runtime.ReadMemStats(&ms)
	if per := float64(ms.Mallocs-before) / n; per >= 0.05 {
		t.Fatalf("the serving loop makes %.2f mallocs per query once warm, want under 0.05", per)
	}
}

// TestCloseIdempotentConcurrent hammers Close, and Shutdown beside it,
// from many goroutines on a live server; every call must return
// cleanly, and a closed server must refuse to listen again. Run with
// -race.
func TestCloseIdempotentConcurrent(t *testing.T) {
	srv := &Server{Plane: newTestPlane(t, "dbl.test", testFeed("dbl", 1), 0)}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				errs <- srv.Shutdown(ctx)
			} else {
				errs <- srv.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close/Shutdown: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen succeeded on a closed server")
	}
}

// TestCloseDuringQueries closes the server while clients are firing
// queries: no panic, no hang, and the races are clean under -race.
func TestCloseDuringQueries(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 1), 0)
	srv := &Server{Plane: p}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			q := appendQuery(nil, id, "spam00.example", "dbl.test", 1)
			buf := make([]byte, 512)
			for j := 0; j < 50; j++ {
				conn, err := net.Dial("udp", addr.String())
				if err != nil {
					errs <- err
					return
				}
				conn.SetDeadline(overload.WallClock().Add(100 * time.Millisecond)) //nolint:errcheck
				conn.Write(q)                                                      //nolint:errcheck // the server may be gone
				conn.Read(buf)                                                     //nolint:errcheck // answered or not
				conn.Close()
			}
		}(uint16(i + 1))
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Close once the clients' queries are arriving.
	for p.Metrics.Queries.Value() < 8 {
		select {
		case <-done:
			t.Fatal("clients finished before the server answered 8 queries")
		default:
			runtime.Gosched()
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestShedReplyHeaderOnly(t *testing.T) {
	req := &dnsbl.Message{
		Header:    dnsbl.Header{ID: 0xbeef, RecursionDesired: true},
		Questions: []dnsbl.Question{{Name: "x.dbl.example", Type: dnsbl.TypeA, Class: dnsbl.ClassIN}},
	}
	raw, err := req.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := shedReply(raw, dnsbl.RCodeServFail)
	if len(resp) != 12 {
		t.Fatalf("shed reply length = %d, want 12 (header only)", len(resp))
	}
	m, err := dnsbl.Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0xbeef || !m.Header.Response || !m.Header.RecursionDesired {
		t.Fatalf("header not echoed: %+v", m.Header)
	}
	if m.Header.RCode != dnsbl.RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", m.Header.RCode)
	}
	if len(m.Questions) != 0 || len(m.Answers) != 0 {
		t.Fatalf("shed reply carries sections: %+v", m)
	}
}

func TestShedReplyRejectsGarbage(t *testing.T) {
	if shedReply([]byte("short"), dnsbl.RCodeServFail) != nil {
		t.Fatal("built a reply from a truncated header")
	}
	resp := shedReply(make([]byte, 12), dnsbl.RCodeRefused)
	if resp == nil {
		t.Fatal("refused a minimal query header")
	}
	// A response must not be answered (reflection loop guard).
	if shedReply(resp, dnsbl.RCodeRefused) != nil {
		t.Fatal("answered a response")
	}
}

func TestShedRCodeMapping(t *testing.T) {
	if shedRCode(overload.ShedRate) != dnsbl.RCodeRefused || shedRCode(overload.ShedFairness) != dnsbl.RCodeRefused {
		t.Fatal("client-fault sheds must REFUSE")
	}
	if shedRCode(overload.ShedCapacity) != dnsbl.RCodeServFail {
		t.Fatal("server-fault sheds must SERVFAIL")
	}
}

func TestQtypeOf(t *testing.T) {
	if got := qtypeOf(appendQuery(nil, 1, "a.b", "dbl.example", dnsbl.TypeTXT)); got != dnsbl.TypeTXT {
		t.Fatalf("qtypeOf = %d, want TXT", got)
	}
	if got := qtypeOf([]byte{1, 2, 3}); got != 0 {
		t.Fatalf("qtypeOf(garbage) = %d, want 0", got)
	}
}

func TestDefaultClassify(t *testing.T) {
	var s Server
	if s.classify(appendQuery(nil, 1, "x", "dbl.example", dnsbl.TypeTXT), netip.AddrPort{}) != overload.Normal {
		t.Fatal("TXT should classify Normal")
	}
	if s.classify(appendQuery(nil, 1, "x", "dbl.example", dnsbl.TypeA), netip.AddrPort{}) != overload.Bulk {
		t.Fatal("A should classify Bulk")
	}
}

// TestServerShedsOnRateLimit: an admission gate with an exhausted rate
// bucket turns queries into header-only REFUSED, counted as shed.
func TestServerShedsOnRateLimit(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0)
	var rates [overload.NumPriorities]float64
	for i := range rates {
		rates[i] = 0.000001 // bucket drains after its initial burst of ~0
	}
	var bursts [overload.NumPriorities]float64
	for i := range bursts {
		bursts[i] = 0.000001
	}
	srv := &Server{
		Plane:     p,
		Admission: overload.NewGate(overload.GateConfig{Rate: rates, Burst: bursts}),
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	q := appendQuery(nil, 9, "spam00.example", "dbl.test", 1)
	resp := queryServer(t, addr, q, 2*time.Second)
	if resp == nil {
		t.Fatal("shed path returned nothing; want header-only REFUSED")
	}
	if len(resp) != 12 {
		t.Fatalf("shed response is %d bytes, want header-only 12", len(resp))
	}
	if rcode := resp[3] & 0x0f; rcode != 5 {
		t.Fatalf("shed rcode = %d, want REFUSED", rcode)
	}
	if resp[0] != q[0] || resp[1] != q[1] {
		t.Fatal("shed response did not echo the query ID")
	}
	if got := p.Metrics.Shed.Value(); got == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestServerListenAfterClose: a closed server refuses to listen again.
func TestServerListenAfterClose(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 1), 0)
	srv := &Server{Plane: p}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen on a closed server succeeded")
	}
}

// TestServerSelfReportedMetrics: the serving loop self-reports a live
// QPS gauge and per-shard queue-depth gauges, and both families appear
// in the Prometheus text scrape (previously throughput was only
// measured from the outside by the blaster).
func TestServerSelfReportedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 4), 0)
	p.Metrics = WireMetrics(reg)

	// A step clock: every reading advances 700ms, so the second QPS
	// window closes after three datagrams without any real sleeping.
	var fake struct {
		mu  sync.Mutex
		now time.Time
	}
	fake.now = time.Unix(1700000000, 0)
	clock := func() time.Time {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		fake.now = fake.now.Add(700 * time.Millisecond)
		return fake.now
	}

	srv := &Server{Plane: p, Readers: 1, Workers: 2, Clock: clock}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 4; i++ {
		q := appendQuery(nil, uint16(i+1), "spam00.example", "dbl.test", 1)
		if got := queryServer(t, addr, q, 2*time.Second); got == nil {
			t.Fatalf("query %d: no answer", i)
		}
	}
	if srv.Plane.Metrics.QPS.Value() == 0 {
		t.Fatal("QPS gauge never set by the serving loop")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		"# TYPE dnsblplane_qps gauge",
		"# TYPE dnsblplane_queue_depth gauge",
		`dnsblplane_queue_depth{shard="0"}`,
		`dnsblplane_queue_depth{shard="1"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q; scrape:\n%s", want, scrape)
		}
	}
	// The qps sample itself must carry the nonzero live value.
	qpsLine := ""
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "dnsblplane_qps ") {
			qpsLine = line
		}
	}
	if qpsLine == "" || strings.TrimSpace(strings.TrimPrefix(qpsLine, "dnsblplane_qps")) == "0" {
		t.Errorf("scrape has no live dnsblplane_qps sample (line %q)", qpsLine)
	}
}
