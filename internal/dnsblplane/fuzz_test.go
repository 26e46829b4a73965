package dnsblplane

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/simclock"
)

// pointerQuery packs a one-question A query for <label>.com whose name
// ends in a compression pointer, which sends it down the slow path. A
// pointer may only point backwards and the header is all that precedes
// the question, so the header's last five bytes spell the label
// sequence "\x03com\x00": ANCOUNT's low byte is the length, NSCOUNT and
// ARCOUNT's high byte the letters. The three answers that ANCOUNT of 3
// promises follow the question as empty records owned by the root.
func pointerQuery(id uint16, label string) []byte {
	q := []byte{byte(id >> 8), byte(id), 0x01, 0x00, 0, 1, 0, 3, 'c', 'o', 'm', 0}
	q = append(q, byte(len(label)))
	q = append(q, label...)
	q = append(q, 0xc0, 7, 0, 1, 0, 1) // pointer to offset 7, TYPE A, CLASS IN
	for i := 0; i < 3; i++ {
		q = append(q, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0) // root, A, IN, TTL 0, no RDATA
	}
	return q
}

// TestFoldIsASCIIOnly: a name folds the same way on the fast path and
// the slow path. With "key" listed in zone com, "KEY.com" is listed
// and "\u212Aey.com" (U+212A KELVIN SIGN, which Unicode folds to k) is not,
// whether the question is plain or ends in a compression pointer.
func TestFoldIsASCIIOnly(t *testing.T) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "com"}}, Clock: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply("com", []Record{{Domain: "key", First: simclock.PaperStart, Feed: "dbl"}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		rcode uint8
	}{
		{"KEY", dnsbl.RCodeNoError},
		{"\u212Aey", dnsbl.RCodeNXDomain},
	} {
		for _, q := range [][]byte{appendQuery(nil, 1, tc.label, "com", dnsbl.TypeA), pointerQuery(2, tc.label)} {
			resp := p.Handle(q)
			if resp == nil {
				t.Fatalf("%q (%x): dropped", tc.label, q)
			}
			if got := resp[3] & 0x0f; got != tc.rcode {
				t.Errorf("%q (%x): rcode %d, want %d", tc.label, q, got, tc.rcode)
			}
		}
		listed, _, _, err := p.Lookup("com", tc.label)
		if err != nil || listed != (tc.rcode == dnsbl.RCodeNoError) {
			t.Errorf("Lookup(%q) = %t, %v", tc.label, listed, err)
		}
	}
	if got := foldName("\u212Aey.COM"); got != "\u212Aey.com" {
		t.Errorf("foldName folded non-ASCII: %q", got)
	}
	lower := "already.lower.example"
	if allocs := testing.AllocsPerRun(100, func() { lower = foldName(lower) }); allocs != 0 {
		t.Errorf("foldName of a lower-case name allocates %.0f times", allocs)
	}
}

// fuzzZones are the fuzzed plane's two zones, neither a suffix of the
// other, and the names listed in each, some with upper-case letters.
var fuzzZones = []struct {
	suffix string
	names  []string
}{
	{"com", []string{"key", "Spam00.Example", "a.b"}},
	{"dbl.test", []string{"spam00.example", "MixedCase.Example", "x"}},
}

// asciiLower is the oracle's own ASCII-only fold.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// FuzzRespond throws raw datagrams at the plane's answer path, fast
// path, slow path and negative cache alike, and checks every answer
// against the codec and the applied records:
//
//   - A datagram of at least 12 bytes with QR clear is dropped only if
//     dnsbl.Unpack rejects it.
//   - Every answer decodes, echoes the query ID and sets QR.
//   - A query dnsbl.Unpack accepts, with opcode 0 and one class-IN
//     question <d>.<zone> (d non-empty), answers NOERROR exactly when
//     the ASCII-folded d is listed in that zone, and NXDOMAIN
//     otherwise.
func FuzzRespond(f *testing.F) {
	p, err := New(Config{
		Zones: []ZoneConfig{
			{Suffix: fuzzZones[0].suffix},
			{Suffix: fuzzZones[1].suffix, SOA: &SOAConfig{MName: "ns1.dbl.test", RName: "hostmaster.dbl.test", Serial: 1}},
		},
		Clock: newFakeClock().now,
	})
	if err != nil {
		f.Fatal(err)
	}
	listed := make(map[string]map[string]bool)
	for _, z := range fuzzZones {
		listed[z.suffix] = make(map[string]bool)
		var recs []Record
		for i, name := range z.names {
			recs = append(recs, Record{Domain: name, First: simclock.PaperStart.Add(time.Duration(i) * time.Hour), Feed: "dbl"})
			listed[z.suffix][asciiLower(name)] = true
		}
		if err := p.Apply(z.suffix, recs); err != nil {
			f.Fatal(err)
		}
	}

	for i, qtype := range []uint16{dnsbl.TypeA, dnsbl.TypeTXT, 255} {
		id := uint16(10 * i)
		f.Add(appendQuery(nil, id, "spam00.example", "dbl.test", qtype)) // listed
		f.Add(appendQuery(nil, id+1, "key", "com", qtype))
		f.Add(appendQuery(nil, id+2, "benign.example", "dbl.test", qtype)) // unlisted
		f.Add(appendQuery(nil, id+3, "dbl", "test", qtype))                // apex with an SOA
		f.Add(appendQuery(nil, id+4, "", "com", qtype))                    // apex without one
	}
	f.Add(appendQuery(nil, 40, "SpAm00.ExAmPlE", "DbL.TeSt", dnsbl.TypeA)) // 0x20 casing
	f.Add(appendQuery(nil, 41, "mIxEdCaSe.example", "dbl.test", dnsbl.TypeTXT))
	f.Add(pointerQuery(42, "key"))
	f.Add(pointerQuery(43, "\u212Aey"))
	f.Add(appendQuery(nil, 44, "\u212Aey", "com", dnsbl.TypeA))
	f.Add(pointerQuery(45, "A.B")) // one label holding a dot: listed "a.b"
	f.Add(pointerQuery(46, ".ey"))
	// A name too long for the fast path's buffer, and for RFC 1035.
	f.Add(appendQuery(nil, 47, strings.Repeat(strings.Repeat("x", 63)+".", 4), "com", dnsbl.TypeA))
	two := appendQuery(nil, 48, "a.example", "dbl.test", dnsbl.TypeA)
	two[5] = 2 // QDCOUNT 2
	two = appendLabels(two, "b.example.dbl.test")
	f.Add(append(two, 0, 0, 1, 0, 1))
	// Two questions, one with a label the dotted form cannot re-pack:
	// a bare FORMERR.
	f.Add([]byte{0, 54, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0,
		2, '.', 'x', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1,
		1, 'a', 0, 0, 1, 0, 1})
	iquery := appendQuery(nil, 49, "spam00.example", "dbl.test", dnsbl.TypeA)
	iquery[2] |= 1 << 3 // opcode 1
	f.Add(iquery)
	qr := appendQuery(nil, 50, "spam00.example", "dbl.test", dnsbl.TypeA)
	qr[2] |= 0x80
	f.Add(qr)
	chaos := appendQuery(nil, 51, "spam00.example", "dbl.test", dnsbl.TypeA)
	chaos[len(chaos)-1] = 3 // class CH
	f.Add(chaos)
	f.Add([]byte{0, 52, 1, 0})
	f.Add(appendQuery(nil, 53, "key", "com", dnsbl.TypeA)[:20])

	r := NewResponder(p)
	f.Fuzz(func(t *testing.T, raw []byte) {
		resp := r.Respond(nil, raw)
		query, qerr := dnsbl.Unpack(raw)
		if resp == nil {
			if len(raw) >= 12 && raw[2]&0x80 == 0 && qerr == nil {
				t.Fatalf("dropped a query dnsbl.Unpack accepts: %x", raw)
			}
			return
		}
		m, err := dnsbl.Unpack(resp)
		if err != nil {
			t.Fatalf("answer does not decode (%v)\n  query:  %x\n  answer: %x", err, raw, resp)
		}
		if m.Header.ID != binary.BigEndian.Uint16(raw) || !m.Header.Response {
			t.Fatalf("answer ID %d QR %t, want ID %d and QR set\n  query: %x",
				m.Header.ID, m.Header.Response, binary.BigEndian.Uint16(raw), raw)
		}
		if qerr != nil || query.Header.Response || query.Header.Opcode != 0 ||
			len(query.Questions) != 1 || query.Questions[0].Class != dnsbl.ClassIN {
			return
		}
		name := asciiLower(query.Questions[0].Name)
		for _, z := range fuzzZones {
			d, ok := strings.CutSuffix(name, "."+z.suffix)
			if !ok || d == "" {
				continue
			}
			want := dnsbl.RCodeNXDomain
			if listed[z.suffix][d] {
				want = dnsbl.RCodeNoError
			}
			if m.Header.RCode != want {
				t.Fatalf("%q in zone %s: rcode %d, want %d\n  query:  %x\n  answer: %x",
					d, z.suffix, m.Header.RCode, want, raw, resp)
			}
		}
	})
}
