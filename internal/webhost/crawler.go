package webhost

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/resilient"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// Crawler fetches spam-advertised URLs over real HTTP against a
// webhost.Server, following redirects and matching storefront content
// signatures in the fetched page source. It produces webcrawl.Result
// values, so it is a drop-in, network-backed equivalent of the
// simulated crawler.
type Crawler struct {
	world  *ecosystem.World
	client *http.Client
	// programByName maps signature names back to program ids.
	programByName map[string]int
	// Fetches counts HTTP requests issued (including redirect hops).
	Fetches int64
}

// NewCrawler builds a crawler whose dialer resolves every hostname to
// the given server address — the simulation's DNS — and refuses
// connections for dead or unknown domains.
func NewCrawler(w *ecosystem.World, srv *Server, serverAddr string) *Crawler {
	return NewCrawlerWithDialer(w, srv, serverAddr, nil)
}

// NewCrawlerWithDialer is NewCrawler with the shared pipeline dialer
// plugged under the HTTP transport (nil dial → plain net.Dialer), so
// chaos tests can subject crawls to the same faults as every other
// substrate.
func NewCrawlerWithDialer(w *ecosystem.World, srv *Server, serverAddr string,
	dial resilient.ContextDialFunc) *Crawler {
	if dial == nil {
		dialer := &net.Dialer{Timeout: 5 * time.Second}
		dial = dialer.DialContext
	}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			if !srv.Resolvable(host) {
				return nil, fmt.Errorf("webhost: NXDOMAIN or dead host %q", host)
			}
			return dial(ctx, network, serverAddr)
		},
		// The simulated web is one server; keep connections modest.
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
	}
	c := &Crawler{
		world: w,
		client: &http.Client{
			Transport: transport,
			Timeout:   10 * time.Second,
		},
		programByName: make(map[string]int, len(w.Programs)),
	}
	for i := range w.Programs {
		c.programByName[w.Programs[i].Name] = w.Programs[i].ID
	}
	return c
}

// Visit fetches rawURL, a URL on the domain with symbol ID d, over
// HTTP and classifies the final page. An empty rawURL fetches the
// domain's root, as with domain-only feeds.
func (c *Crawler) Visit(d symtab.ID, rawURL string) webcrawl.Result {
	return c.VisitContext(context.Background(), d, rawURL)
}

// VisitContext is Visit bounded by ctx: cancellation aborts the fetch
// (including mid-redirect and mid-body) and the result reports the page
// as unreachable, the same as a dead host.
func (c *Crawler) VisitContext(ctx context.Context, d symtab.ID, rawURL string) webcrawl.Result {
	name := domain.Name(c.world.Syms.Lookup(d))
	res := webcrawl.Result{URL: rawURL, Domain: name, Final: name, Program: -1, Affiliate: -1}
	fetch := rawURL
	if fetch == "" {
		fetch = "http://" + string(name) + "/"
	}
	c.Fetches++
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fetch, nil)
	if err != nil {
		return res
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return res // dead host / NXDOMAIN / cancelled
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res
	}
	res.OK = true
	if final := resp.Request.URL.Hostname(); final != "" {
		if d, err := domain.DefaultRules.Registered(final); err == nil {
			res.Final = d
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return res
	}
	c.tagFromContent(&res, string(body))
	return res
}

// tagFromContent applies the storefront content signatures to the page
// source: the program marker, the goods category, and — for RX pages —
// the embedded affiliate identifier.
func (c *Crawler) tagFromContent(res *webcrawl.Result, body string) {
	name, ok := extractAttr(body, "data-program")
	if !ok {
		return
	}
	programID, known := c.programByName[name]
	if !known {
		return
	}
	prog := &c.world.Programs[programID]
	if !prog.Category.Tagged() {
		return
	}
	res.Tagged = true
	res.Program = programID
	res.Category = prog.Category
	if key, ok := extractSpan(body, "aff-id"); ok {
		res.AffiliateKey = key
		// Resolve the affiliate id from the key.
		for i := range c.world.Affiliates {
			if c.world.Affiliates[i].Key == key {
				res.Affiliate = c.world.Affiliates[i].ID
				break
			}
		}
	}
}

// extractAttr pulls attr="value" out of the page source.
func extractAttr(body, attr string) (string, bool) {
	marker := attr + "=\""
	i := strings.Index(body, marker)
	if i < 0 {
		return "", false
	}
	rest := body[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// extractSpan pulls the text of <span class="CLASS">text</span>.
func extractSpan(body, class string) (string, bool) {
	marker := "class=\"" + class + "\">"
	i := strings.Index(body, marker)
	if i < 0 {
		return "", false
	}
	rest := body[i+len(marker):]
	j := strings.IndexByte(rest, '<')
	if j < 0 {
		return "", false
	}
	return strings.TrimSpace(rest[:j]), true
}
