package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"tasterschoice/internal/dnsblplane"
)

// The two served zones, sized by default like the paper's two
// blacklists (Table 1: dbl lists 413k distinct domains, uribl 145k).
// Each zone carries several feeds so a TXT answer naming the wrong one
// is caught. Delta batches go into zone 0, the larger one.
var (
	zoneSuffix = [2]string{"dbl.bench.test", "uribl.bench.test"}
	zoneFeeds  = [2][]string{{"dbl", "mx1", "Ac1"}, {"uribl", "mx2", "Bot"}}
	tlds       = []string{"com", "net", "org", "info", "ru", "cn", "biz"}
	// listStart and listSpan bound the first-seen times: the paper's
	// three-month collection window.
	listStart = time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC).Unix()
	listSpan  = int64(92 * 24 * 3600)
)

// Name classes. A generated name is letters, then a decimal index,
// then its class letter, then a TLD; the letters-digits-letter shape
// parses one way only, so names of different (class, index) pairs
// never collide and listed names, misses and deltas stay disjoint.
const (
	classZone0  = 'p'
	classZone1  = 'q'
	classRepeat = 'm'
	classUnique = 'u'
	classDelta  = 'r'
)

// Streams of the benchmark's own PCG, one per input, so one input's
// size never shifts another's draws.
const (
	streamZone0 = 1 + iota
	streamZone1
	streamRepeat
	streamDelta
	streamClient // + client index
)

func pcg(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// genName returns a unique, valid DNS name for (class, i) with a
// random-length random prefix and TLD drawn from r.
func genName(r *rand.Rand, class byte, i int) string {
	var b [40]byte
	n := 3 + r.IntN(8)
	for k := 0; k < n; k++ {
		b[k] = 'a' + byte(r.IntN(26))
	}
	w := strconv.AppendInt(b[:n], int64(i), 10)
	w = append(w, class, '.')
	w = append(w, tlds[r.IntN(len(tlds))]...)
	return string(w)
}

func genRecord(r *rand.Rand, class byte, i int, feeds []string) dnsblplane.Record {
	name := genName(r, class, i)
	return dnsblplane.Record{
		Domain: name,
		First:  time.Unix(listStart+r.Int64N(listSpan), 0).UTC(),
		Feed:   feeds[r.IntN(len(feeds))],
	}
}

// inputs is everything a DNSBL run serves and asks, generated from the
// seed. It doubles as the answer oracle: a name is listed exactly when
// it is one of these records.
type inputs struct {
	zones [2][]dnsblplane.Record
	// repeat holds, per zone, the small set of unlisted names that
	// recur, so their answers come from the negative cache.
	repeat [2][]string
	// deltas are the writer's batches, cfg.batches per round, applied
	// in order into zone 0.
	deltas [][]dnsblplane.Record
}

func genInputs(cfg *dnsCfg) *inputs {
	in := &inputs{}
	for z, class := range [2]byte{classZone0, classZone1} {
		r := pcg(cfg.seed, uint64(streamZone0+z))
		recs := make([]dnsblplane.Record, cfg.zoneNames[z])
		for i := range recs {
			recs[i] = genRecord(r, class, i, zoneFeeds[z])
		}
		in.zones[z] = recs
	}
	r := pcg(cfg.seed, streamRepeat)
	for z := range in.repeat {
		for i := 0; i < repeatMisses; i++ {
			in.repeat[z] = append(in.repeat[z], genName(r, classRepeat, z*repeatMisses+i))
		}
	}
	r = pcg(cfg.seed, streamDelta)
	for b := 0; b < cfg.rounds*cfg.batches; b++ {
		batch := make([]dnsblplane.Record, cfg.batchSize)
		for i := range batch {
			batch[i] = genRecord(r, classDelta, b*cfg.batchSize+i, zoneFeeds[0])
		}
		in.deltas = append(in.deltas, batch)
	}
	return in
}

// The query mix, the same for every run.
const (
	missShare = 0.30 // of all queries; half recurring, half never seen
	txtShare  = 0.20
	zipfS     = 1.1 // Zipf exponent of the listed-name draws
	// repeatMisses is the size of each zone's recurring miss set, small
	// enough that its answers stay in the negative cache.
	repeatMisses = 64
)

// query is one generated lookup. rec is the expected listing, nil for
// a name that must not be listed.
type query struct {
	zone  int
	qtype uint16
	name  string
	rec   *dnsblplane.Record
}

// queryGen is one client's query stream. The mix: listed names drawn
// with Zipf weights (loud campaigns dominate lookups), misses split
// between a small recurring set and never-seen names, a share of TXT
// lookups, zones alternating.
type queryGen struct {
	client int
	in     *inputs
	r      *rand.Rand
	zipf   [2]*rand.Zipf
	n      int
	unique int
}

func newQueryGen(cfg *dnsCfg, in *inputs, client int) *queryGen {
	g := &queryGen{client: client, in: in, r: pcg(cfg.seed, uint64(streamClient+client))}
	for z := range g.zipf {
		g.zipf[z] = rand.NewZipf(g.r, zipfS, 1, uint64(len(in.zones[z])-1))
	}
	return g
}

// next returns the next query.
func (g *queryGen) next() query {
	q := query{zone: g.n % 2, qtype: typeA}
	g.n++
	switch {
	case g.r.Float64() >= missShare:
		q.rec = &g.in.zones[q.zone][g.zipf[q.zone].Uint64()]
		q.name = q.rec.Domain
	case g.r.IntN(2) == 0:
		set := g.in.repeat[q.zone]
		q.name = set[g.r.IntN(len(set))]
	default:
		q.name = genName(g.r, classUnique, g.unique*clients+g.client)
		g.unique++
	}
	if g.r.Float64() < txtShare {
		q.qtype = typeTXT
	}
	return q
}

// DNS wire constants the benchmark's own codec needs.
const (
	typeA          = 1
	typeTXT        = 16
	rcodeNoError   = 0
	rcodeServFail  = 2
	rcodeNXDomain  = 3
	rcodeRefused   = 5
	headerLen      = 12
	flagsRecursion = 0x01 // RD, first flags byte
)

var listedAddr = [4]byte{127, 0, 0, 2}

// packQuery appends a query for name.zone with the given ID and type.
func packQuery(dst []byte, id uint16, name, zone string, qtype uint16) []byte {
	dst = append(dst, byte(id>>8), byte(id), flagsRecursion, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	for _, part := range [2]string{name, zone} {
		for part != "" {
			var label string
			label, part, _ = strings.Cut(part, ".")
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		}
	}
	return append(dst, 0, byte(qtype>>8), byte(qtype), 0, 1)
}

// appendReason appends the TXT text the plane gives a listed record.
func appendReason(dst []byte, rec *dnsblplane.Record) []byte {
	dst = append(dst, "listed "...)
	dst = rec.First.UTC().AppendFormat(dst, time.RFC3339)
	dst = append(dst, " by "...)
	return append(dst, rec.Feed...)
}

type outcome uint8

const (
	outOK outcome = iota
	outWrong
	outShed // a header-only REFUSED or SERVFAIL: overload protection
)

// checkAnswer verifies resp against the query q it answers. A listed
// name must get NOERROR with one answer: A 127.0.0.2, or a TXT whose
// text is reason. An unlisted name must get NXDOMAIN with none. nx
// reports whether the accepted answer was NXDOMAIN.
func checkAnswer(q, resp []byte, listed bool, reason []byte) (out outcome, nx bool) {
	if len(resp) < headerLen || resp[0] != q[0] || resp[1] != q[1] || resp[2]&0x80 == 0 {
		return outWrong, false
	}
	rcode := resp[3] & 0x0f
	qd, an := binary.BigEndian.Uint16(resp[4:]), binary.BigEndian.Uint16(resp[6:])
	if (rcode == rcodeServFail || rcode == rcodeRefused) && qd == 0 {
		return outShed, false
	}
	if qd != 1 || len(resp) < len(q) || !bytes.Equal(resp[headerLen:len(q)], q[headerLen:]) {
		return outWrong, false
	}
	switch {
	case rcode == rcodeNXDomain && an == 0 && !listed:
		return outOK, true
	case rcode == rcodeNoError && an == 1 && listed:
		qtype := binary.BigEndian.Uint16(q[len(q)-4:])
		if answerMatches(resp[len(q):], qtype, reason) {
			return outOK, false
		}
	}
	return outWrong, false
}

// answerMatches checks the single answer record: a pointer to the
// question name, the asked type, class IN, and the expected data.
func answerMatches(rr []byte, qtype uint16, reason []byte) bool {
	if len(rr) < 12 || rr[0] != 0xc0 || rr[1] != headerLen ||
		binary.BigEndian.Uint16(rr[2:]) != qtype || binary.BigEndian.Uint16(rr[4:]) != 1 {
		return false
	}
	rdata := rr[12:]
	if int(binary.BigEndian.Uint16(rr[10:])) != len(rdata) {
		return false
	}
	if qtype == typeA {
		return bytes.Equal(rdata, listedAddr[:])
	}
	// TXT: one or more length-prefixed strings that concatenate to
	// the reason.
	for len(rdata) > 0 {
		n := int(rdata[0])
		if n+1 > len(rdata) || n > len(reason) || !bytes.Equal(rdata[1:1+n], reason[:n]) {
			return false
		}
		rdata, reason = rdata[1+n:], reason[n:]
	}
	return len(reason) == 0
}
