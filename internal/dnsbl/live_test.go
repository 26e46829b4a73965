// Client tests against a live server. They live in an external test
// package because the server, internal/dnsblplane, imports dnsbl.
package dnsbl_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/faultnet"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/resilient"
	"tasterschoice/internal/simclock"
)

// serveFeed serves feed as zone over UDP through the query plane and
// returns the server's address. The server closes when the test ends.
func serveFeed(t *testing.T, zone string, feed *feeds.Feed) string {
	t.Helper()
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: zone}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadFeed(zone, feed); err != nil {
		t.Fatal(err)
	}
	srv := &dnsblplane.Server{Plane: p}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func TestEndToEndUDP(t *testing.T) {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	f.ObserveOnce(simclock.PaperStart.AddDate(0, 0, 1), "replicas.net")
	c := dnsbl.NewClient(serveFeed(t, "dbl.example", f), "dbl.example", 1)
	c.Timeout = 3 * time.Second

	listed, err := c.Listed("cheappills.com")
	if err != nil || !listed {
		t.Fatalf("Listed(cheappills.com) = %v, %v", listed, err)
	}
	listed, err = c.Listed("innocent.org")
	if err != nil || listed {
		t.Fatalf("Listed(innocent.org) = %v, %v", listed, err)
	}
	reason, err := c.Reason("replicas.net")
	if err != nil || reason == "" {
		t.Fatalf("Reason = %q, %v", reason, err)
	}
	if !strings.Contains(reason, "dbl") {
		t.Fatalf("reason %q missing feed name", reason)
	}
	reason, err = c.Reason("innocent.org")
	if err != nil || reason != "" {
		t.Fatalf("Reason(unlisted) = %q, %v", reason, err)
	}
}

// TestShutdownAnswersInFlightUDP verifies the client's view of a
// draining server: a query answered before Shutdown is listed, and once
// Shutdown returns the socket is gone, so a lookup reports an error
// rather than a false "not listed".
func TestShutdownAnswersInFlightUDP(t *testing.T) {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "pills.com")
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "dbl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadFeed("dbl.test", f); err != nil {
		t.Fatal(err)
	}
	srv := &dnsblplane.Server{Plane: p}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dnsbl.NewClient(addr.String(), "dbl.test", 42)
	c.Timeout = 2 * time.Second
	listed, err := c.Listed(domain.Name("pills.com"))
	if err != nil || !listed {
		t.Fatalf("warm-up query: listed=%v err=%v", listed, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Fully stopped: the socket is gone.
	c.Timeout = 200 * time.Millisecond
	if _, err := c.Listed(domain.Name("pills.com")); err == nil {
		t.Fatal("query succeeded after Shutdown")
	}
}

// TestChaosLookupsSurviveUDPLoss drives the full client/server exchange
// through a seeded fault injector dropping 30% of datagrams in each
// direction (so only ~half the attempts complete), plus latency jitter.
// Every lookup must still succeed within the configured retry budget,
// with the correct answer — across three seeds, deterministically.
func TestChaosLookupsSurviveUDPLoss(t *testing.T) {
	feed := feeds.New("dbl", feeds.KindBlacklist, false, false)
	listed := make([]domain.Name, 0, 16)
	for i := 0; i < 16; i++ {
		d := domain.Name(fmt.Sprintf("spam%02d.example", i))
		feed.ObserveOnce(simclock.PaperStart, d)
		listed = append(listed, d)
	}
	addr := serveFeed(t, "dbl.test", feed)

	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultnet.New(faultnet.Faults{
				Seed:     seed,
				DropProb: 0.30,
				Latency:  time.Millisecond,
				Jitter:   2 * time.Millisecond,
			})
			c := dnsbl.NewClient(addr, "dbl.test", seed)
			c.Dial = inj.Dial
			c.Timeout = 120 * time.Millisecond
			c.Retries = 9 // retry budget: P(all 10 attempts die) ~ 0.51^10 < 0.2%
			c.Backoff = resilient.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

			for i, d := range listed {
				got, err := c.Listed(d)
				if err != nil {
					t.Fatalf("lookup %d (%s) exceeded the retry budget: %v", i, d, err)
				}
				if !got {
					t.Fatalf("%s not listed under chaos", d)
				}
			}
			if unlisted, err := c.Listed("benign.example"); err != nil || unlisted {
				t.Fatalf("benign lookup under chaos: listed=%v err=%v", unlisted, err)
			}
			if inj.Injected() == 0 {
				t.Fatal("no faults fired: the chaos run tested nothing")
			}
		})
	}
}

// TestChaosReasonUnderLoss exercises the TXT path under the same loss.
func TestChaosReasonUnderLoss(t *testing.T) {
	feed := feeds.New("dbl", feeds.KindBlacklist, false, false)
	feed.ObserveOnce(simclock.PaperStart, "cheappills.com")
	addr := serveFeed(t, "dbl.test", feed)

	inj := faultnet.New(faultnet.Faults{Seed: 4, DropProb: 0.30})
	c := dnsbl.NewClient(addr, "dbl.test", 4)
	c.Dial = inj.Dial
	c.Timeout = 120 * time.Millisecond
	c.Retries = 9
	c.Backoff = resilient.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	reason, err := c.Reason("cheappills.com")
	if err != nil {
		t.Fatal(err)
	}
	if reason == "" {
		t.Fatal("no TXT reason under chaos")
	}
}
