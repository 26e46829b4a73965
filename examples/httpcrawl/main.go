// httpcrawl labels a feed the way the paper's measurement pipeline
// did: take the URLs a feed received, fetch every one over real HTTP
// with a pool of concurrent crawler workers, follow redirects to the
// final storefront, and compute the feed's purity indicators from what
// the crawl actually returned.
//
// The simulated web is served by internal/webhost on a loopback
// listener; name resolution happens in the crawler's dialer, so dead
// and unregistered domains fail exactly like NXDOMAIN.
package main

import (
	"fmt"
	"os"
	"sync"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
	"tasterschoice/internal/webhost"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "httpcrawl: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	scen := simulate.Small(2024)
	world, err := ecosystem.Generate(scen.Ecosystem)
	if err != nil {
		return err
	}
	res, err := mailflow.New(world, scen.Collection).Run()
	if err != nil {
		return err
	}

	srv := webhost.NewServer(world)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("simulated web serving %d domains on %s\n", len(world.Campaigns), addr)

	rows := make([][]string, 0, 3)
	for _, feedName := range []string{"mx1", "Ac1", "Hyb"} {
		feed := res.Feed(feedName)
		// Collect each domain's sample URL (empty: its bare root).
		type job struct {
			d   symtab.ID
			url string
		}
		var jobs []job
		feed.Each(func(d domain.Name, s feeds.DomainStat) {
			id, _ := world.Syms.Find(string(d))
			jobs = append(jobs, job{id, s.SampleURL})
		})

		// A pool of crawler workers, each with its own HTTP client.
		const workers = 8
		results := make([]webcrawl.Result, len(jobs))
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				crawler := webhost.NewCrawler(world, srv, addr.String())
				for i := range next {
					results[i] = crawler.Visit(jobs[i].d, jobs[i].url)
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()

		var ok200, tagged int
		for _, r := range results {
			if r.OK {
				ok200++
			}
			if r.Tagged {
				tagged++
			}
		}
		n := len(jobs)
		rows = append(rows, []string{
			feedName,
			fmt.Sprintf("%d", n),
			report.Percent(float64(ok200) / float64(n)),
			report.Percent(float64(tagged) / float64(n)),
		})
	}

	fmt.Printf("\ncrawled over HTTP (%d requests served):\n\n", srv.Requests())
	fmt.Println(report.Table([]string{"Feed", "URLs", "HTTP 200", "Tagged"}, rows))
	fmt.Println("Compare with Table 2 of the full report: the same purity numbers,")
	fmt.Println("this time measured off the wire instead of simulated.")
	return nil
}
