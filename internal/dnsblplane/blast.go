package dnsblplane

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
	"tasterschoice/internal/randutil"
)

// Blaster drives synthetic resolver load at a DNSBL server over UDP:
// many client goroutines, each with its own socket and seeded RNG,
// sending a weighted mix of listed-domain lookups (the loud-campaign
// skew — a few botnet-blasted domains dominate, a long tail trails)
// and junk misses, verifying every answer against an oracle and
// measuring per-query round-trip latency. Everything is deterministic
// per seed except the latencies themselves.
type Blaster struct {
	// Addr is the server's UDP address.
	Addr string
	// Zones are the zone suffixes to query (round-robin per client).
	Zones []string
	// Listed are the domains expected on the lists; Weights, when
	// non-nil and index-aligned, skews the mix (ecosystem loud-campaign
	// weights). With nil Weights the mix is Zipf(1.1) over rank.
	Listed  []string
	Weights []float64
	// Unlisted are junk domains queried to exercise the negative path.
	Unlisted []string
	// MissFrac is the fraction of queries aimed at Unlisted names
	// (default 0.4).
	MissFrac float64
	// TXTFrac is the fraction of queries asking TXT instead of A
	// (default 0.1).
	TXTFrac float64
	// Clients is the concurrent resolver-client count (default 8).
	Clients int
	// QPS bounds the aggregate send rate (0 = unbounded).
	QPS float64
	// Timeout bounds each query round trip (default 2s).
	Timeout time.Duration
	// Seed drives every client RNG.
	Seed uint64
	// Oracle returns the expected listing state for a domain in a zone.
	// It is consulted before and after each query, so an answer racing
	// a hot reload is correct if it matches either state. Nil skips
	// answer verification (pure throughput mode).
	Oracle func(zone, domain string) (listed bool, first time.Time, feed string)
	// Clock measures latency (default wall clock); tests inject.
	Clock overload.Clock
	// Latency, when non-nil, also receives every round-trip latency in
	// seconds (obs exposition alongside the report's exact quantiles).
	Latency *obs.Histogram
}

// Report is the outcome of one blast run.
type Report struct {
	// Sent, Received, Timeouts count queries; Shed counts legal
	// overload refusals (header-only REFUSED/SERVFAIL); Incorrect
	// counts answers that contradicted the oracle.
	Sent, Received, Timeouts, Shed, Incorrect int64
	// Duration is the measured run length, QPS the received-answer
	// rate over it.
	Duration time.Duration
	QPS      float64
	// P50/P99/P999 are exact round-trip quantiles over all received
	// answers.
	P50, P99, P999 time.Duration
	// Mismatches holds a bounded sample of incorrect-answer
	// descriptions for diagnosis.
	Mismatches []string
}

// String renders the one-line summary the CI logs grep.
func (r *Report) String() string {
	return fmt.Sprintf(
		"blast: sent=%d recv=%d timeouts=%d shed=%d incorrect=%d qps=%.0f p50=%s p99=%s p999=%s",
		r.Sent, r.Received, r.Timeouts, r.Shed, r.Incorrect,
		r.QPS, r.P50, r.P99, r.P999)
}

const maxLatencySamples = 1 << 21 // per client; bounds memory on long runs

// blastClient is one resolver client's state.
type blastClient struct {
	sent, received, timeouts, shed, incorrect int64
	latencies                                 []int64 // nanos
	mismatches                                []string
}

func (b *Blaster) clients() int {
	if b.Clients > 0 {
		return b.Clients
	}
	return 8
}

func (b *Blaster) timeout() time.Duration {
	if b.Timeout > 0 {
		return b.Timeout
	}
	return 2 * time.Second
}

func (b *Blaster) missFrac() float64 {
	if b.MissFrac > 0 {
		return b.MissFrac
	}
	return 0.4
}

func (b *Blaster) txtFrac() float64 {
	if b.TXTFrac > 0 {
		return b.TXTFrac
	}
	return 0.1
}

func (b *Blaster) clock() overload.Clock {
	if b.Clock != nil {
		return b.Clock
	}
	return overload.WallClock
}

// Run blasts the server for d (or until ctx is done, whichever comes
// first) and returns the aggregated report.
func (b *Blaster) Run(ctx context.Context, d time.Duration) (*Report, error) {
	if len(b.Zones) == 0 {
		return nil, ErrNoZones
	}
	if len(b.Listed) == 0 && len(b.Unlisted) == 0 {
		return nil, fmt.Errorf("dnsblplane: blaster has no domains to query")
	}
	clock := b.clock()
	var bucket *overload.TokenBucket
	if b.QPS > 0 {
		bucket = overload.NewTokenBucket(b.QPS, b.QPS/4+1, clock)
	}
	stop := make(chan struct{})
	timer := time.NewTimer(d)
	defer timer.Stop()
	go func() {
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		close(stop)
	}()

	n := b.clients()
	clients := make([]blastClient, n)
	var wg sync.WaitGroup
	start := clock()
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.client(i, &clients[i], bucket, stop)
		}(i)
	}
	wg.Wait()
	elapsed := clock().Sub(start)

	rep := &Report{Duration: elapsed}
	var all []int64
	for i := range clients {
		c := &clients[i]
		rep.Sent += c.sent
		rep.Received += c.received
		rep.Timeouts += c.timeouts
		rep.Shed += c.shed
		rep.Incorrect += c.incorrect
		all = append(all, c.latencies...)
		for _, m := range c.mismatches {
			if len(rep.Mismatches) < 20 {
				rep.Mismatches = append(rep.Mismatches, m)
			}
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Received) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rep.P50 = time.Duration(quantileNanos(all, 0.50))
		rep.P99 = time.Duration(quantileNanos(all, 0.99))
		rep.P999 = time.Duration(quantileNanos(all, 0.999))
	}
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// quantileNanos returns the q-th element of a sorted sample.
func quantileNanos(sorted []int64, q float64) int64 {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// client is one resolver's send/receive loop.
func (b *Blaster) client(id int, c *blastClient, bucket *overload.TokenBucket, stop <-chan struct{}) error {
	conn, err := net.Dial("udp", b.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rng := randutil.NamedInt(b.Seed, "blast-client", id)
	var pick *randutil.WeightedChoice
	var zipf *randutil.Zipf
	if len(b.Listed) > 0 {
		if b.Weights != nil && len(b.Weights) == len(b.Listed) {
			pick = randutil.NewWeightedChoice(&rng, b.Weights)
		} else {
			zipf = randutil.NewZipf(1.1, len(b.Listed))
		}
	}
	clock := b.clock()
	query := make([]byte, 0, 512)
	resp := make([]byte, 4096)
	scratch := make([]byte, 0, 128)
	var qid uint16
	for seq := 0; ; seq++ {
		select {
		case <-stop:
			return nil
		default:
		}
		if bucket != nil {
			if err := waitBucket(bucket, stop); err != nil {
				return nil // stopped while paced
			}
		}
		// Pick the query: zone round-robins, the listed/miss split and
		// the A/TXT split draw from the client RNG, the listed name
		// draws from the skew.
		zone := b.Zones[seq%len(b.Zones)]
		var domain string
		expectMiss := false
		if len(b.Listed) == 0 || (len(b.Unlisted) > 0 && rng.Bool(b.missFrac())) {
			domain = b.Unlisted[rng.Intn(len(b.Unlisted))]
			expectMiss = true
		} else if pick != nil {
			domain = b.Listed[pick.Pick()]
		} else {
			domain = b.Listed[zipf.NextWith(&rng)]
		}
		qtype := uint16(1) // A
		if rng.Bool(b.txtFrac()) {
			qtype = 16 // TXT
		}
		qid++
		query = appendQuery(query[:0], qid, domain, zone, qtype)

		var preListed bool
		var preFirst time.Time
		var preFeed string
		if b.Oracle != nil {
			preListed, preFirst, preFeed = b.Oracle(zone, domain)
		}
		sendAt := clock()
		conn.SetDeadline(sendAt.Add(b.timeout())) //nolint:errcheck
		if _, err := conn.Write(query); err != nil {
			return err
		}
		c.sent++
		n, err := conn.Read(resp)
		if err != nil {
			c.timeouts++
			continue
		}
		latency := clock().Sub(sendAt)
		c.received++
		if len(c.latencies) < maxLatencySamples {
			c.latencies = append(c.latencies, int64(latency))
		}
		b.Latency.Observe(latency.Seconds())
		if b.Oracle == nil {
			continue
		}
		postListed, postFirst, postFeed := b.Oracle(zone, domain)
		scratch = b.check(c, scratch, query, resp[:n], qtype, domain, zone, expectMiss,
			preListed, preFirst, preFeed, postListed, postFirst, postFeed)
	}
}

// waitBucket blocks until the rate bucket grants one send or stop
// closes.
func waitBucket(bucket *overload.TokenBucket, stop <-chan struct{}) error {
	for !bucket.Allow(1) {
		d := bucket.Delay(1)
		if d <= 0 {
			d = time.Millisecond
		}
		if d > 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		t := time.NewTimer(d)
		select {
		case <-stop:
			t.Stop()
			return context.Canceled
		case <-t.C:
		}
	}
	return nil
}

// check verifies one answer against the oracle's pre- and post-query
// states, recording a mismatch when the answer matches neither. It
// returns the (possibly regrown) scratch buffer.
func (b *Blaster) check(c *blastClient, scratch, query, resp []byte, qtype uint16,
	domain, zone string, expectMiss bool,
	preListed bool, preFirst time.Time, preFeed string,
	postListed bool, postFirst time.Time, postFeed string) []byte {
	bad := func(format string, args ...any) []byte {
		c.incorrect++
		if len(c.mismatches) < 4 {
			c.mismatches = append(c.mismatches,
				fmt.Sprintf("%s.%s/%d: ", domain, zone, qtype)+fmt.Sprintf(format, args...))
		}
		return scratch
	}
	if len(resp) < 12 {
		return bad("short response (%d bytes)", len(resp))
	}
	if resp[0] != query[0] || resp[1] != query[1] {
		return bad("ID mismatch")
	}
	if resp[2]&0x80 == 0 {
		return bad("QR not set")
	}
	rcode := resp[3] & 0x0f
	// Header-only REFUSED/SERVFAIL is a legal overload shed, not an
	// answer: count it separately so the caller can alarm on shed rate
	// without calling the plane incorrect.
	if len(resp) == 12 && (rcode == 5 || rcode == 2) {
		c.received--
		c.shed++
		return scratch
	}
	// The question must echo byte-for-byte (cache hits patch ID+RD;
	// everything else is the client's own bytes back).
	if len(resp) < len(query) || string(resp[12:len(query)]) != string(query[12:]) {
		return bad("question echo mismatch")
	}
	answeredListed := rcode == 0
	if rcode != 0 && rcode != 3 {
		return bad("unexpected rcode %d", rcode)
	}
	if expectMiss && !preListed && !postListed {
		if answeredListed {
			return bad("listed answer for never-listed name")
		}
		return scratch
	}
	// A name whose listing state could have changed mid-flight is
	// correct in either world.
	if answeredListed != preListed && answeredListed != postListed {
		return bad("answer listed=%t, oracle pre=%t post=%t", answeredListed, preListed, postListed)
	}
	if !answeredListed {
		return scratch
	}
	ancount := int(resp[6])<<8 | int(resp[7])
	switch qtype {
	case 1: // A: one answer ending in the listed address
		if ancount != 1 || len(resp) < len(query)+16 {
			return bad("A answer missing (ancount=%d len=%d)", ancount, len(resp))
		}
		addr := resp[len(resp)-4:]
		if [4]byte{addr[0], addr[1], addr[2], addr[3]} != [4]byte{127, 0, 0, 2} {
			return bad("A answer %d.%d.%d.%d", addr[0], addr[1], addr[2], addr[3])
		}
	case 16: // TXT: the reason must match the pre- or post-query oracle
		if ancount != 1 {
			return bad("TXT answer missing (ancount=%d)", ancount)
		}
		got, ok := txtData(resp, len(query))
		if !ok {
			return bad("TXT answer unparseable")
		}
		scratch = appendReason(scratch[:0], preFirst, preFeed)
		preOK := preListed && string(got) == string(scratch)
		scratch = appendReason(scratch[:0], postFirst, postFeed)
		postOK := postListed && string(got) == string(scratch)
		if !preOK && !postOK {
			return bad("TXT reason %q != oracle %q", got, scratch)
		}
	}
	return scratch
}

// appendReason builds the expected TXT reason for a listing.
func appendReason(dst []byte, first time.Time, feed string) []byte {
	dst = append(dst, "listed"...)
	if feed != "" {
		dst = append(dst, ' ')
		dst = first.UTC().AppendFormat(dst, time.RFC3339)
		dst = append(dst, " by "...)
		dst = append(dst, feed...)
	}
	return dst
}

// txtData extracts the first TXT character-string run from the single
// answer record following the echoed question at qEnd.
func txtData(resp []byte, qEnd int) ([]byte, bool) {
	i := qEnd
	// NAME: compression pointer (2 bytes) or labels.
	if i+2 > len(resp) {
		return nil, false
	}
	if resp[i]&0xc0 == 0xc0 {
		i += 2
	} else {
		for i < len(resp) && resp[i] != 0 {
			i += 1 + int(resp[i])
		}
		i++
	}
	// TYPE+CLASS+TTL+RDLENGTH = 10 bytes.
	if i+10 > len(resp) {
		return nil, false
	}
	rdlen := int(resp[i+8])<<8 | int(resp[i+9])
	i += 10
	if i+rdlen > len(resp) || rdlen == 0 {
		return nil, false
	}
	// Concatenate the character strings.
	var out []byte
	j := i
	for j < i+rdlen {
		l := int(resp[j])
		j++
		if j+l > i+rdlen {
			return nil, false
		}
		out = append(out, resp[j:j+l]...)
		j += l
	}
	return out, true
}

// appendQuery packs one A/TXT query for <domain>.<zone> onto dst.
func appendQuery(dst []byte, id uint16, domain, zone string, qtype uint16) []byte {
	dst = append(dst,
		byte(id>>8), byte(id),
		0x01, 0x00, // RD set
		0, 1, // QDCOUNT
		0, 0, 0, 0, 0, 0)
	dst = appendLabels(dst, domain)
	dst = appendLabels(dst, zone)
	dst = append(dst, 0,
		byte(qtype>>8), byte(qtype),
		0, 1) // IN
	return dst
}

// appendLabels appends the dotted name as length-prefixed labels,
// without the terminating zero.
func appendLabels(dst []byte, name string) []byte {
	for len(name) > 0 {
		var label string
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			label, name = name, ""
		}
		if label == "" {
			continue
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return dst
}
