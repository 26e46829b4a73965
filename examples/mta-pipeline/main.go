// mta-pipeline runs the complete operational stack end to end over
// real sockets: a blacklist collected by the simulation is served as a
// DNSBL zone over UDP; a filtering MTA accepts mail over SMTP, reduces
// each message's URLs to registered domains, queries the DNSBL for
// every domain, and rejects listed mail; a bot-like sender delivers a
// mixed stream of campaign spam and legitimate mail.
//
// The feed you plug into the MTA decides what gets stopped — the
// paper's coverage and purity findings as a running mail system.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/mailmsg"
	"tasterschoice/internal/mta"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simulate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mta-pipeline: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Collect feeds from the simulated ecosystem.
	scen := simulate.Small(99)
	world, err := ecosystem.Generate(scen.Ecosystem)
	if err != nil {
		return err
	}
	res, err := mailflow.New(world, scen.Collection).Run()
	if err != nil {
		return err
	}

	// Serve the collected dbl feed over DNS/UDP.
	blacklist := res.Feed("dbl")
	plane, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "dbl.example"}}})
	if err != nil {
		return err
	}
	plane.Metrics = dnsblplane.WireMetrics(obs.NewRegistry())
	if _, err := plane.LoadFeed("dbl.example", blacklist); err != nil {
		return err
	}
	blServer := &dnsblplane.Server{Plane: plane}
	blAddr, err := blServer.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer blServer.Close()
	fmt.Printf("DNSBL zone dbl.example (%d domains) on udp://%s\n",
		blacklist.Unique(), blAddr)

	// The filtering MTA, querying the DNSBL per domain.
	client := dnsbl.NewClient(blAddr.String(), "dbl.example", 4)
	client.Timeout = 3 * time.Second
	var mu sync.Mutex
	inbox := 0
	server := mta.NewServer("mail.provider.example", client, func(d mta.Decision) {
		mu.Lock()
		inbox++
		mu.Unlock()
	})
	server.RejectSpam = true
	mtaAddr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()
	fmt.Printf("filtering MTA on tcp://%s\n\n", mtaAddr)

	// A mixed message stream: campaign spam plus legitimate mail.
	rng := randutil.New(17)
	var msgs []*mailmsg.Message
	spamSent := 0
	for i := range world.Campaigns {
		c := &world.Campaigns[i]
		if c.Class == ecosystem.ClassWebOnly || spamSent >= 150 {
			continue
		}
		slot := c.Domains[rng.Intn(len(c.Domains))]
		msgs = append(msgs, mailflow.RenderMessage(rng, world, c, slot, "",
			slot.Start, "user@provider.example"))
		spamSent++
	}
	hamSent := 60
	for i := 0; i < hamSent; i++ {
		b := world.Benign[rng.Intn(len(world.Benign))]
		msgs = append(msgs, &mailmsg.Message{
			From: "colleague@example.org", To: "user@provider.example",
			Subject: "fyi",
			Body:    fmt.Sprintf("interesting read: %s", ecosystem.ChaffURL(b.Name)),
		})
	}

	if err := mta.SendAll(mtaAddr.String(), msgs); err != nil {
		return err
	}
	if !server.WaitReceived(int64(len(msgs)), 10*time.Second) {
		return fmt.Errorf("MTA processed %d of %d", server.Stats().Received, len(msgs))
	}

	st := server.Stats()
	fmt.Printf("sent %d messages (%d spam, %d ham) over SMTP\n",
		len(msgs), spamSent, hamSent)
	fmt.Printf("MTA: %d received, %d rejected, %d delivered (%d lookup errors)\n",
		st.Received, st.Rejected, st.Delivered, st.Errors)
	fmt.Printf("DNSBL answered %d queries, %d listed\n", plane.Metrics.Queries.Value(), plane.Metrics.Hits.Value())
	fmt.Printf("spam catch rate with the dbl feed: %.0f%%\n",
		100*float64(st.Rejected)/float64(spamSent))
	fmt.Println("\nSwap in a different feed (uribl, or an MX honeypot's output) and")
	fmt.Println("the same pipeline stops a very different fraction of the stream —")
	fmt.Println("the paper's point, in production form.")
	return nil
}
