package dnsblplane

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tasterschoice/internal/faultnet"
	"tasterschoice/internal/overload"
)

// chaosPayload builds the i-th hostile datagram: a rotating mix of
// truncated headers, QR-set packets, pointer-bearing questions, junk
// bytes, multi-question and wrong-opcode shapes — everything the wire
// can throw at the fast path's parser.
func chaosPayload(i int) []byte {
	switch i % 8 {
	case 0:
		return []byte{byte(i), byte(i >> 8), 0}
	case 1: // QR already set: must be dropped, not answered
		q := appendQuery(nil, uint16(i), "x.example", "dbl.test", 1)
		q[2] |= 0x80
		return q
	case 2: // compression pointer in the question
		q := appendQuery(nil, uint16(i), "", "", 1)
		q = q[:12]
		q = append(q, 0xc0, 0x0c, 0, 1, 0, 1)
		return q
	case 3: // label overruns the datagram
		q := appendQuery(nil, uint16(i), "x.example", "dbl.test", 1)
		q[12] = 200
		return q
	case 4: // zero-length datagram payload stand-in: one byte
		return []byte{0}
	case 5: // multi-question
		q := appendQuery(nil, uint16(i), "a.example", "dbl.test", 1)
		q[5] = 2
		q = appendLabels(q, "b.example.dbl.test")
		return append(q, 0, 0, 1, 0, 1)
	case 6: // IQUERY opcode
		q := appendQuery(nil, uint16(i), "c.example", "dbl.test", 1)
		q[2] |= 1 << 3
		return q
	default: // random-ish garbage
		buf := make([]byte, 40)
		for j := range buf {
			buf[j] = byte(i*31 + j*7)
		}
		return buf
	}
}

// TestChaosFloodThenCorrectAnswers floods the server with hostile
// datagrams from faultnet while real clients keep querying, then
// asserts byte-correct answers against the in-process oracle: the
// flood may cost a dropped reply here and there (UDP), but it must
// never corrupt an answer or wedge the pipeline.
func TestChaosFloodThenCorrectAnswers(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 8), 64)
	srv := &Server{Plane: p, Readers: 2, Workers: 2, Batch: 8}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	done := make(chan faultnet.FloodReport, 1)
	go func() {
		flood := faultnet.Flood{Seed: 7, Workers: 4}
		done <- flood.Datagrams(ctx, "udp", addr.String(), 2000, chaosPayload)
	}()

	// Interleave real queries with the flood; UDP under flood may drop a
	// reply, so retry each query a few times, but any reply that does
	// arrive must be byte-identical to the oracle's answer.
	oracle := func(q []byte) []byte { return p.Handle(q) }
	answered := 0
	for i := 0; i < 200; i++ {
		kind := uint16(1)
		if i%5 == 0 {
			kind = 16
		}
		name := fmt.Sprintf("spam%02d.example", i%8)
		if i%3 == 0 {
			name = fmt.Sprintf("miss%d.example", i)
		}
		q := appendQuery(nil, uint16(1000+i), name, "dbl.test", kind)
		want := oracle(q)
		for attempt := 0; attempt < 5; attempt++ {
			got := queryServer(t, addr, q, 500*time.Millisecond)
			if got == nil {
				continue // lost to the flood; retry
			}
			if isShed(got) {
				continue // legal shed under load; retry
			}
			if string(got) != string(want) {
				t.Fatalf("query %d (%s): answer corrupted under flood\n  got:  %x\n  want: %x",
					i, name, got, want)
			}
			answered++
			break
		}
	}
	rep := <-done
	if rep.Sent == 0 {
		t.Fatal("flood sent nothing; the chaos run tested nothing")
	}
	if answered == 0 {
		t.Fatal("no real query survived the flood; server wedged")
	}
	t.Logf("flood sent %d hostile datagrams; %d/200 real queries answered correctly", rep.Sent, answered)

	// The pipeline must still be fully alive after the storm. The
	// flood's tail can still fill the client's queue shard or the
	// socket buffer, so a lost reply or a shed is retried by the loop's
	// rule until a deadline; any other reply must match the oracle.
	q := appendQuery(nil, 9999, "spam00.example", "dbl.test", 1)
	want := oracle(q)
	deadline := overload.WallClock().Add(5 * time.Second)
	for {
		got := queryServer(t, addr, q, 500*time.Millisecond)
		if got != nil && !isShed(got) {
			if string(got) != string(want) {
				t.Fatalf("answer corrupted after the flood\n  got:  %x\n  want: %x", got, want)
			}
			return
		}
		if overload.WallClock().After(deadline) {
			t.Fatal("server not answering after the flood")
		}
	}
}

// isShed reports whether a reply is the plane's legal shed under load:
// a header-only REFUSED or SERVFAIL.
func isShed(reply []byte) bool {
	return len(reply) == 12 && (reply[3]&0x0f == 5 || reply[3]&0x0f == 2)
}

// TestChaosFloodDuringReload runs the flood, live queries AND hot
// reloads at once — the full three-way storm. Every answered query
// must match the oracle's pre- or post-state for the queried name.
func TestChaosFloodDuringReload(t *testing.T) {
	p := newTestPlane(t, "dbl.test", testFeed("dbl", 4), 64)
	srv := &Server{Plane: p, Readers: 1, Workers: 2}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		faultnet.Flood{Seed: 11, Workers: 2}.Datagrams(ctx, "udp", addr.String(), 1000, chaosPayload)
	}()

	reloadDone := make(chan struct{})
	//lint:allow goroleak -- test harness: joined via the reloadDone channel before the test returns
	go func() {
		defer close(reloadDone)
		for i := 0; i < 50; i++ {
			rec := Record{
				Domain: fmt.Sprintf("fresh%02d.example", i),
				First:  time.Unix(1217548800+int64(i), 0),
				Feed:   "delta",
			}
			if err := p.Apply("dbl.test", []Record{rec}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("fresh%02d.example", i%50)
		q := appendQuery(nil, uint16(i), name, "dbl.test", 1)
		pre, _, _, _ := p.Lookup("dbl.test", name)
		got := queryServer(t, addr, q, 500*time.Millisecond)
		post, _, _, _ := p.Lookup("dbl.test", name)
		if got == nil {
			continue // lost to the flood
		}
		if len(got) == 12 {
			continue // shed
		}
		rcode := got[3] & 0x0f
		listed := rcode == 0
		if rcode != 0 && rcode != 3 {
			t.Fatalf("%s: rcode %d under reload storm", name, rcode)
		}
		if listed != pre && listed != post {
			t.Fatalf("%s: answered listed=%t, oracle pre=%t post=%t", name, listed, pre, post)
		}
	}
	<-reloadDone
	cancel()
	<-floodDone
}
