// Chaos suite: the serving plane under seeded synthetic overload.
// Every scenario drives a real server over real sockets with a
// faultnet flood at a multiple of its configured capacity, and the
// claims are always the same three: answers that are accepted stay
// byte-identical to the unloaded goldens, accepted-request latency
// stays bounded while excess load is shed with protocol-native
// errors, and a drain started mid-flood completes cleanly without
// leaking goroutines.
//
// This file measures real wall-clock latency of real sockets, so its
// clock reads are sanctioned with wallclock directives below — the
// point of the suite is precisely the behavior the simclock cannot
// see.
package overload_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/faultnet"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/feedsync"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/smtpd"
)

// wallNow is this suite's sanctioned wall-clock read: chaos tests
// measure the latency of real packets on real sockets.
func wallNow() time.Time {
	return time.Now() //lint:allow wallclock -- chaos suite measures real socket latency under a real flood
}

// wallSleep paces real-socket work; nothing deterministic depends on
// it.
func wallSleep(d time.Duration) {
	time.Sleep(d) //lint:allow wallclock -- chaos suite paces real sockets, not simulated time
}

// chaosFeed builds a deterministic blacklist of n domains.
func chaosFeed(n int) *feeds.Feed {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	for i := 0; i < n; i++ {
		f.ObserveOnce(simclock.PaperStart, domain.Name(chaosDomain(i)))
	}
	return f
}

func chaosDomain(i int) string { return fmt.Sprintf("spamdomain%03d.com", i) }

const chaosZone = "dbl.example"

// startFloodTarget wires a queued, gated DNSBL server the way
// cmd/dnsblserve -workers does, with a bulk-class rate low enough
// that a flood is guaranteed to shed.
func startFloodTarget(t *testing.T) (*dnsblplane.Server, net.Addr, overload.GateMetrics) {
	t.Helper()
	reg := obs.NewRegistry()
	gm := overload.NewGateMetrics(reg, "dnsbl")
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: chaosZone}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Metrics = dnsblplane.WireMetrics(reg)
	if _, err := p.LoadFeed(chaosZone, chaosFeed(64)); err != nil {
		t.Fatal(err)
	}
	srv := &dnsblplane.Server{Plane: p, Workers: 4, QueueDepth: 64}
	srv.Admission = overload.NewGate(overload.GateConfig{
		Rate:    [overload.NumPriorities]float64{overload.Bulk: 2000},
		Burst:   [overload.NumPriorities]float64{overload.Bulk: 64},
		Seed:    1709,
		Metrics: gm,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr, gm
}

// packQuery builds one raw DNS query with a fixed ID so replies are
// byte-comparable across runs.
func packQuery(t *testing.T, name string, qtype uint16, id uint16) []byte {
	t.Helper()
	raw, err := (&dnsbl.Message{
		Header:    dnsbl.Header{ID: id},
		Questions: []dnsbl.Question{{Name: name, Type: qtype, Class: dnsbl.ClassIN}},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// exchange sends one raw query and returns the raw reply bytes and
// the time the round trip took.
func exchange(addr net.Addr, raw []byte) (reply []byte, took time.Duration, err error) {
	c, err := net.Dial("udp", addr.String())
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	start := wallNow()
	if _, err := c.Write(raw); err != nil {
		return nil, 0, err
	}
	c.SetReadDeadline(start.Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 512)
	n, err := c.Read(buf)
	if err != nil {
		return nil, 0, err
	}
	return buf[:n:n], wallNow().Sub(start), nil
}

// isShedReply reports whether a raw DNS reply is an overload shed
// (header-only SERVFAIL or REFUSED) rather than a served answer.
// Golden replies are NOERROR or NXDOMAIN, so the two sets never
// overlap.
func isShedReply(raw []byte) bool {
	m, err := dnsbl.Unpack(raw)
	if err != nil {
		return false
	}
	return m.Header.RCode == dnsbl.RCodeServFail || m.Header.RCode == dnsbl.RCodeRefused
}

// goldenProbes are the fixed query set whose replies must be
// byte-identical before, during and after a flood: TXT queries ride
// the Normal class, so the flood (bulk A queries) cannot starve them.
func goldenProbes(t *testing.T) [][]byte {
	t.Helper()
	var probes [][]byte
	for i := 0; i < 4; i++ {
		probes = append(probes,
			packQuery(t, chaosDomain(i)+"."+chaosZone, dnsbl.TypeTXT, uint16(0x5000+i)))
	}
	probes = append(probes,
		packQuery(t, "innocent.example."+chaosZone, dnsbl.TypeTXT, 0x5ff0))
	return probes
}

// TestChaosOverloadDNSBLFloodGolden is the flagship: a seeded UDP
// flood at an offered load far past the configured bulk budget, with
// concurrent golden probes. Accepted answers must be byte-identical
// to the unloaded goldens, accepted-probe latency must stay bounded,
// and the gate must actually shed (otherwise the test proved
// nothing).
func TestChaosOverloadDNSBLFloodGolden(t *testing.T) {
	srv, addr, gm := startFloodTarget(t)
	defer srv.Close()

	probes := goldenProbes(t)
	golden := make([][]byte, len(probes))
	for i, q := range probes {
		reply, _, err := exchange(addr, q)
		if err != nil {
			t.Fatalf("unloaded probe %d: %v", i, err)
		}
		golden[i] = reply
	}

	// The flood: bulk A queries from 8 seeded workers, paced so the
	// offered load sustains ~20k queries/s — 10× the 2000/s bulk
	// budget — for roughly half a second, long enough for the golden
	// probes to sample the server under genuine pressure.
	const floodN = 10000
	flood := faultnet.Flood{Seed: 1709, Workers: 8, Gap: 400 * time.Microsecond}
	floodCtx, cancelFlood := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelFlood()
	var report faultnet.FloodReport
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		report = flood.Datagrams(floodCtx, "udp", addr.String(), floodN, func(i int) []byte {
			q, err := (&dnsbl.Message{
				Header:    dnsbl.Header{ID: uint16(i)},
				Questions: []dnsbl.Question{{Name: fmt.Sprintf("flood%d.%s", i, chaosZone), Type: dnsbl.TypeA, Class: dnsbl.ClassIN}},
			}).Pack()
			if err != nil {
				return nil
			}
			return q
		})
	}()

	// Golden probes under fire: every accepted answer byte-identical,
	// every accepted round trip bounded.
	var worst time.Duration
	served := 0
	for round := 0; ; round++ {
		select {
		case <-floodDone:
			if report.Sent == 0 {
				t.Fatalf("flood sent nothing (errors: %d)", report.Errors)
			}
			if served == 0 {
				t.Fatal("no golden probe was served while the flood ran — the latency claim is vacuous")
			}
			if worst > 2*time.Second {
				t.Fatalf("worst accepted-probe latency %v under flood, want bounded well under the 5s timeout", worst)
			}
			// Shedding must have engaged, or the "overload" was not one.
			shed := int64(0)
			for _, r := range []overload.ShedReason{
				overload.ShedCapacity, overload.ShedRate, overload.ShedFairness,
			} {
				shed += gm.Shed[overload.Bulk][r].Value()
			}
			if shed == 0 {
				t.Fatal("flood finished without a single bulk shed — offered load never exceeded capacity")
			}
			// And the goldens must still be byte-identical after the
			// storm (retrying through the queue's brief drain-down —
			// a shed right after the last flood packet is legitimate).
			for i, q := range probes {
				var reply []byte
				for attempt := 0; ; attempt++ {
					var err error
					reply, _, err = exchange(addr, q)
					if err == nil && !isShedReply(reply) {
						break
					}
					if attempt > 100 {
						t.Fatalf("post-flood probe %d never served (last err %v)", i, err)
					}
					wallSleep(5 * time.Millisecond)
				}
				if !bytes.Equal(reply, golden[i]) {
					t.Fatalf("post-flood probe %d reply diverged from golden:\n got %x\nwant %x", i, reply, golden[i])
				}
			}
			return
		default:
		}
		i := round % len(probes)
		reply, took, err := exchange(addr, probes[i])
		if err != nil || isShedReply(reply) {
			// A probe lost to UDP or shed under flood is not an accepted
			// request; only served probes make latency and byte-identity
			// claims.
			continue
		}
		served++
		if took > worst {
			worst = took
		}
		if !bytes.Equal(reply, golden[i]) {
			t.Fatalf("mid-flood probe %d reply diverged from golden:\n got %x\nwant %x", i, reply, golden[i])
		}
	}
}

// TestChaosOverloadDNSBLDrainMidFlood starts the drain while the
// flood is still arriving: Shutdown must complete within its deadline
// and the server's goroutines must all exit.
func TestChaosOverloadDNSBLDrainMidFlood(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, addr, _ := startFloodTarget(t)

	floodCtx, cancelFlood := context.WithCancel(context.Background())
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		f := faultnet.Flood{Seed: 31, Workers: 4}
		f.Datagrams(floodCtx, "udp", addr.String(), 1<<20, func(i int) []byte {
			q, _ := (&dnsbl.Message{
				Header:    dnsbl.Header{ID: uint16(i)},
				Questions: []dnsbl.Question{{Name: fmt.Sprintf("flood%d.%s", i, chaosZone), Type: dnsbl.TypeA, Class: dnsbl.ClassIN}},
			}).Pack()
			return q
		})
	}()

	// Let the flood actually land before pulling the plug.
	for srv.Plane.Metrics.Queries.Value() == 0 {
		wallSleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	//lint:allow wallclock -- chaos test drives a real edge server; wall time here is harness I/O, not engine time
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown mid-flood: %v", err)
	}
	cancelFlood()
	<-floodDone

	deadline := wallNow().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && wallNow().Before(deadline) {
		wallSleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked through a mid-flood drain: %d > baseline %d", n, baseline)
	}
}

// readCode reads one SMTP reply line and parses its 3-digit code.
func readCode(br *bufio.Reader) (int, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 3 {
		return 0, fmt.Errorf("short reply %q", line)
	}
	code := 0
	for _, ch := range line[:3] {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("bad reply %q", line)
		}
		code = code*10 + int(ch-'0')
	}
	return code, nil
}

// TestChaosOverloadSMTPConnectionFlood hammers an admission-gated
// SMTP sink with seeded connection storms. Excess sessions are turned
// away with 421 at the banner — fast, protocol-native, retryable —
// while a well-behaved sender keeps delivering mail the whole time.
func TestChaosOverloadSMTPConnectionFlood(t *testing.T) {
	var received atomic.Int64
	srv := smtpd.NewServer("mx.chaos.example", func(smtpd.Envelope) { received.Add(1) })
	srv.Admission = overload.NewGate(overload.GateConfig{MaxConcurrent: 4})
	addr, err := srv.Listen("127.0.0.1:0") //lint:allow wallclock -- chaos test drives a real edge SMTP server; wall time here is harness I/O, not engine time
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var banners421, banners220 atomic.Int64
	flood := faultnet.Flood{Seed: 97, Workers: 8}
	floodCtx, cancelFlood := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelFlood()
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		flood.Connections(floodCtx, "tcp", addr.String(), 200, func(i int, c net.Conn) error {
			c.SetDeadline(wallNow().Add(5 * time.Second)) //nolint:errcheck
			br := bufio.NewReader(c)
			code, err := readCode(br)
			if err != nil {
				return err
			}
			switch code {
			case 421:
				banners421.Add(1)
				return nil
			case 220:
				banners220.Add(1)
				// Camp on the slot briefly so the gate stays contended,
				// then leave politely.
				wallSleep(2 * time.Millisecond)
				fmt.Fprintf(c, "QUIT\r\n")
				readCode(br) //nolint:errcheck
				return nil
			default:
				return fmt.Errorf("banner code %d", code)
			}
		})
	}()

	// The well-behaved sender: full sessions, retrying 421s the way a
	// real MTA requeues, must land mail throughout the storm.
	delivered := 0
	senderDeadline := wallNow().Add(25 * time.Second)
	for delivered < 5 {
		if wallNow().After(senderDeadline) {
			t.Fatalf("sender delivered only %d/5 messages before giving up", delivered)
		}
		if err := sendOneMessage(addr); err != nil {
			wallSleep(5 * time.Millisecond)
			continue
		}
		delivered++
	}
	cancelFlood()
	<-floodDone

	if banners421.Load() == 0 {
		t.Fatal("flood never saw a 421 — the gate never contended")
	}
	if banners220.Load() == 0 {
		t.Fatal("flood never got a banner — the gate admitted nothing")
	}
	if received.Load() < 5 {
		t.Fatalf("received %d messages, want the sender's 5 despite the flood", received.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after flood: %v", err)
	}
}

// sendOneMessage runs one complete SMTP transaction; any non-success
// reply is an error so the caller can retry.
func sendOneMessage(addr net.Addr) error {
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(wallNow().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(c)
	expect := func(want int) error {
		code, err := readCode(br)
		if err != nil {
			return err
		}
		if code != want {
			return fmt.Errorf("got %d, want %d", code, want)
		}
		return nil
	}
	if err := expect(220); err != nil {
		return err
	}
	for _, step := range []struct {
		cmd  string
		want int
	}{
		{"HELO chaos.example", 250},
		{"MAIL FROM:<flood@chaos.example>", 250},
		{"RCPT TO:<victim@mx.chaos.example>", 250},
		{"DATA", 354},
	} {
		fmt.Fprintf(c, "%s\r\n", step.cmd)
		if err := expect(step.want); err != nil {
			return fmt.Errorf("%s: %w", step.cmd, err)
		}
	}
	fmt.Fprintf(c, "Subject: chaos\r\n\r\nhello\r\n.\r\n")
	if err := expect(250); err != nil {
		return fmt.Errorf("end-of-data: %w", err)
	}
	fmt.Fprintf(c, "QUIT\r\n")
	return nil
}

// TestChaosOverloadFeedsyncSlowReaderFanout fans several stalling
// subscribers out against one budgeted feedsync server: the healthy
// subscriber must stream at full speed regardless, and a drain begun
// while the slow readers are mid-crawl must still flush every record.
func TestChaosOverloadFeedsyncSlowReaderFanout(t *testing.T) {
	srv := feedsync.NewServer()
	if err := srv.Register("uribl", feeds.KindBlacklist, false, false); err != nil {
		t.Fatal(err)
	}
	srv.MaxBatch = 64
	//lint:allow wallclock -- chaos test drives a real feedsync server; wall time here is harness I/O, not engine time
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 300
	for i := 0; i < n; i++ {
		rec := feeds.RawRecord{
			Time:   simclock.PaperStart.Add(time.Duration(i) * time.Hour),
			Domain: chaosDomain(i % 64),
			URL:    fmt.Sprintf("http://%s/p/%d", chaosDomain(i%64), i),
		}
		if err := srv.Publish("uribl", rec); err != nil {
			t.Fatal(err)
		}
	}

	// Four slow readers, each with its own seeded stall profile. A slow
	// reader's first successful Read closes its served channel: the
	// server writes only to a connection it has accepted and registered,
	// so from then on a drain must flush that subscriber.
	var wg sync.WaitGroup
	slowOffsets := make([]int64, 4)
	served := make([]chan struct{}, 4)
	for w := 0; w < 4; w++ {
		served[w] = make(chan struct{})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := feedsync.NewClient(addr.String())
			faults := faultnet.New(faultnet.Faults{
				Seed:          uint64(100 + w),
				ReadStallProb: 0.5,
				ReadStall:     2 * time.Millisecond,
			})
			var once sync.Once
			cl.Dial = func(network, address string) (net.Conn, error) {
				c, err := faults.Dial(network, address)
				if err != nil {
					return nil, err
				}
				return &firstReadConn{Conn: c, once: &once, read: served[w]}, nil
			}
			dst := feeds.New("uribl", feeds.KindBlacklist, false, false)
			//lint:allow wallclock -- chaos test syncs over a faulty real socket; wall time is the harness's, not the engine's
			off, err := cl.Sync("uribl", 0, dst)
			if err != nil {
				t.Errorf("slow subscriber %d: %v", w, err)
				return
			}
			slowOffsets[w] = off
		}(w)
	}

	// The healthy subscriber must not care about its stalling peers.
	fastStart := wallNow()
	dst := feeds.New("uribl", feeds.KindBlacklist, false, false)
	//lint:allow wallclock -- chaos test syncs over a real socket; wall time is the harness's, not the engine's
	off, err := feedsync.NewClient(addr.String()).Sync("uribl", 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if off != n {
		t.Fatalf("healthy subscriber offset = %d, want %d", off, n)
	}
	if took := wallNow().Sub(fastStart); took > 10*time.Second {
		t.Fatalf("healthy subscriber took %v behind %d stalling peers", took, 4)
	}

	// Drain while the slow readers are still mid-crawl: the drain
	// contract flushes their streams to completion anyway. Shutdown
	// closes the listener, so it waits until the server has served
	// every slow reader: one not yet accepted would be refused or reset,
	// not drained.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for w, ch := range served {
		select {
		case <-ch:
		case <-ctx.Done():
			srv.Close()
			wg.Wait() // the subscribers report through t before it ends
			t.Fatalf("slow subscriber %d was never served before the drain deadline", w)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with stalling subscribers in flight: %v", err)
	}
	wg.Wait()
	for w, off := range slowOffsets {
		if off != n {
			t.Fatalf("slow subscriber %d offset = %d, want %d", w, off, n)
		}
	}
}

// firstReadConn closes read, once across every connection sharing
// once, when a Read first returns data.
type firstReadConn struct {
	net.Conn
	once *sync.Once
	read chan struct{}
}

func (c *firstReadConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.once.Do(func() { close(c.read) })
	}
	return n, err
}
