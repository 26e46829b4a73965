package lifecycle_test

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/lifecycle"
	"tasterschoice/internal/mta"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/smtpd"
)

// TestShutdownDrainUnderLoad runs the operational pipeline — an MTA
// filtering over a live DNSBL — under concurrent SMTP load, then
// drains it mid-traffic the way a SIGTERM does: the MTA first, then
// the DNSBL server its in-flight mail still queries, under one
// deadline. It asserts the drain contract end to end:
//
//   - every message a client saw accepted (250) was processed by the
//     MTA: zero lost in-flight sessions;
//   - the drain completes well inside its deadline;
//   - no goroutines leak once both servers are down.
//
// Run with -race; the interleavings are the point.
func TestShutdownDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Blacklist zone served over real UDP.
	feed := feeds.New("uribl", feeds.KindBlacklist, false, false)
	feed.ObserveOnce(simclock.PaperStart, "cheappills.com")
	plane, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "uribl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plane.LoadFeed("uribl.test", feed); err != nil {
		t.Fatal(err)
	}
	dnsblSrv := &dnsblplane.Server{Plane: plane}
	dnsblAddr, err := dnsblSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Filtering MTA in front of it.
	client := dnsbl.NewClient(dnsblAddr.String(), "uribl.test", 99)
	client.Timeout = 2 * time.Second
	var delivered atomic.Int64
	mtaSrv := mta.NewServer("mx.drain.test", client, func(mta.Decision) {
		delivered.Add(1)
	})
	mtaAddr, err := mtaSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Load: workers open sessions and push messages until the drain
	// refuses them. confirmed counts messages whose 250 arrived.
	var confirmed atomic.Int64
	var wg sync.WaitGroup
	stopLoad := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte("subject: pills\r\n\r\nbuy http://cheappills.com/p/c1 now\r\n")
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				c, err := smtpd.Dial(mtaAddr.String())
				if err != nil {
					return // drain began: new connections are refused
				}
				if err := c.Hello("bot.example"); err != nil {
					c.Close()
					return
				}
				for i := 0; i < 3; i++ {
					if err := c.Send("a@bot.example", []string{"v@mx.drain.test"}, body); err != nil {
						break
					}
					confirmed.Add(1)
				}
				c.Quit() //nolint:errcheck
				c.Close()
			}
		}()
	}

	// Let traffic build, then pull the plug mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for confirmed.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if confirmed.Load() == 0 {
		t.Fatal("no load reached the pipeline")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	// Front end first: the MTA stops taking mail before the DNSBL its
	// in-flight sessions still query goes away.
	for _, srv := range []lifecycle.Server{mtaSrv, dnsblSrv} {
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	drainTook := time.Since(start)
	close(stopLoad)
	wg.Wait()

	// Zero lost sessions: everything confirmed at the client made it
	// through the MTA's handler.
	stats := mtaSrv.Stats()
	if stats.Received < confirmed.Load() {
		t.Fatalf("drain lost mail: clients confirmed %d, MTA processed %d",
			confirmed.Load(), stats.Received)
	}
	if delivered.Load() == 0 {
		t.Fatal("no decisions delivered")
	}
	if drainTook > 10*time.Second {
		t.Fatalf("drain took %v", drainTook)
	}

	// Zero leaked goroutines: the count returns to the baseline.
	waitDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(waitDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		var buf strings.Builder
		pprof.Lookup("goroutine").WriteTo(&buf, 1) //nolint:errcheck
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf.String())
	}
}
