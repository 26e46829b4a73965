// dnsbl-filter demonstrates the operational consequence of feed choice:
// it serves two collected blacklists (dbl and uribl) and one honeypot
// feed over the DNSBL protocol, then filters the same stream of spam
// and legitimate mail through each, measuring catch rate and false
// positives per feed — the paper's coverage and purity findings turned
// into their production effect.
package main

import (
	"fmt"
	"os"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailfilter"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/mailmsg"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dnsbl-filter: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Collect the feeds.
	scen := simulate.Small(321)
	world, err := ecosystem.Generate(scen.Ecosystem)
	if err != nil {
		return err
	}
	res, err := mailflow.New(world, scen.Collection).Run()
	if err != nil {
		return err
	}

	// Build a labeled message stream: spam rendered from real
	// campaigns plus ham naming benign domains.
	rng := randutil.New(5)
	var stream []sample
	for i := range world.Campaigns {
		c := &world.Campaigns[i]
		if c.Class == ecosystem.ClassWebOnly || len(stream) >= 600 {
			continue
		}
		slot := c.Domains[rng.Intn(len(c.Domains))]
		m := mailflow.RenderMessage(rng, world, c, slot, "", slot.Start, "user@webmail.example")
		stream = append(stream, sample{body: m.Body, spam: true})
	}
	for i := 0; i < 300; i++ {
		b := world.Benign[rng.Intn(len(world.Benign))]
		stream = append(stream, sample{
			body: fmt.Sprintf("newsletter: read more at %s", ecosystem.ChaffURL(b.Name)),
			spam: false,
		})
	}

	// Serve each candidate feed as a DNSBL zone and filter the stream
	// through it — real UDP round-trips for every uncached domain.
	rows := make([][]string, 0, 3)
	for _, feedName := range []string{"dbl", "uribl", "mx1"} {
		feed := res.Feed(feedName)
		zone := feedName + ".bl.test"
		plane, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: zone}}})
		if err != nil {
			return err
		}
		plane.Metrics = dnsblplane.WireMetrics(obs.NewRegistry())
		if _, err := plane.LoadFeed(zone, feed); err != nil {
			return err
		}
		srv := &dnsblplane.Server{Plane: plane}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		client := dnsbl.NewClient(addr.String(), zone, 11)
		client.Timeout = 3 * time.Second
		filter := mailfilter.New(client)

		var eval mailfilter.Eval
		for _, s := range stream {
			v, err := filter.Classify(&mailmsg.Message{Body: s.body})
			if err != nil {
				srv.Close()
				return err
			}
			eval.Add(s.spam, v.Spam)
		}
		rows = append(rows, []string{
			feedName,
			fmt.Sprintf("%d", feed.Unique()),
			fmt.Sprintf("%.1f%%", eval.CatchRate()*100),
			fmt.Sprintf("%.2f%%", eval.FalsePositiveRate()*100),
			fmt.Sprintf("%d", filter.Lookups),
			fmt.Sprintf("%d", plane.Metrics.Queries.Value()),
		})
		srv.Close()
	}

	fmt.Printf("filtered %d messages (%d spam) through three DNSBL zones:\n\n",
		len(stream), countSpam(stream))
	fmt.Println(report.Table(
		[]string{"Feed", "Domains", "Catch", "FalsePos", "Lookups", "UDP queries"}, rows))
	fmt.Println("The blacklists catch far more spam at almost no false-positive cost; the")
	fmt.Println("honeypot feed catches only the loud campaigns it could see, and its")
	fmt.Println("chaff contamination turns into real false positives.")
	return nil
}

// sample is one labeled message in the evaluation stream.
type sample struct {
	body string
	spam bool
}

func countSpam(stream []sample) int {
	n := 0
	for _, s := range stream {
		if s.spam {
			n++
		}
	}
	return n
}
