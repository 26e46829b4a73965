package mta

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailfilter"
	"tasterschoice/internal/mailmsg"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simclock"
)

func blacklist() *feeds.Feed {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	f.ObserveOnce(simclock.PaperStart, "replicas.net")
	return f
}

func messages() []*mailmsg.Message {
	return []*mailmsg.Message{
		{From: "a@spam.example", To: "u@mta.test", Subject: "meds",
			Body: "buy http://cheappills.com/p/c1 now"},
		{From: "b@spam.example", To: "u@mta.test", Subject: "watches",
			Body: "see http://shop.replicas.net/sale"},
		{From: "friend@example.org", To: "u@mta.test", Subject: "lunch",
			Body: "menu at http://nice-cafe.org/menu"},
		{From: "newsletter@example.org", To: "u@mta.test", Subject: "news",
			Body: "no links today"},
	}
}

func TestMTATagsSpam(t *testing.T) {
	var mu sync.Mutex
	var delivered []Decision
	srv := NewServer("mta.test", mailfilter.FeedLister{Feed: blacklist()}, func(d Decision) {
		mu.Lock()
		delivered = append(delivered, d)
		mu.Unlock()
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := SendAll(addr.String(), messages()); err != nil {
		t.Fatal(err)
	}
	if !srv.WaitReceived(4, 5*time.Second) {
		t.Fatalf("received %d of 4", srv.Stats().Received)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 4 {
		t.Fatalf("delivered %d (tag mode keeps everything)", len(delivered))
	}
	spam := 0
	for _, d := range delivered {
		if d.Spam {
			spam++
			if d.Matched == "" {
				t.Errorf("spam verdict without matched domain")
			}
		}
	}
	if spam != 2 {
		t.Fatalf("spam verdicts = %d, want 2", spam)
	}
	st := srv.Stats()
	if st.Received != 4 || st.Delivered != 4 || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMTARejectsSpam(t *testing.T) {
	var mu sync.Mutex
	var delivered []Decision
	srv := NewServer("mta.test", mailfilter.FeedLister{Feed: blacklist()}, func(d Decision) {
		mu.Lock()
		delivered = append(delivered, d)
		mu.Unlock()
	})
	srv.RejectSpam = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := SendAll(addr.String(), messages()); err != nil {
		t.Fatal(err)
	}
	if !srv.WaitReceived(4, 5*time.Second) {
		t.Fatal("not all messages processed")
	}
	st := srv.Stats()
	if st.Rejected != 2 || st.Delivered != 2 {
		t.Fatalf("stats: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, d := range delivered {
		if d.Spam {
			t.Fatalf("spam delivered despite RejectSpam: %+v", d)
		}
	}
}

type brokenLister struct{}

func (brokenLister) Listed(domain.Name) (bool, error) {
	return false, errors.New("lookup infrastructure down")
}

func TestMTAFailsOpen(t *testing.T) {
	srv := NewServer("mta.test", brokenLister{}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := SendAll(addr.String(), messages()[:1]); err != nil {
		t.Fatal(err)
	}
	if !srv.WaitReceived(1, 5*time.Second) {
		t.Fatal("message not processed")
	}
	st := srv.Stats()
	if st.Errors != 1 || st.Delivered != 1 {
		t.Fatalf("fail-open broken: %+v", st)
	}
}

// TestMTAOverLiveDNSBL runs the complete production stack: SMTP in,
// DNSBL lookups over UDP, spam rejected.
func TestMTAOverLiveDNSBL(t *testing.T) {
	plane, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "dbl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	plane.Metrics = dnsblplane.WireMetrics(obs.NewRegistry())
	if _, err := plane.LoadFeed("dbl.test", blacklist()); err != nil {
		t.Fatal(err)
	}
	bl := &dnsblplane.Server{Plane: plane}
	blAddr, err := bl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()

	client := dnsbl.NewClient(blAddr.String(), "dbl.test", 3)
	client.Timeout = 3 * time.Second
	srv := NewServer("mta.test", client, nil)
	srv.RejectSpam = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := SendAll(addr.String(), messages()); err != nil {
		t.Fatal(err)
	}
	if !srv.WaitReceived(4, 5*time.Second) {
		t.Fatal("not all messages processed")
	}
	st := srv.Stats()
	if st.Rejected != 2 {
		t.Fatalf("stats over live DNSBL: %+v", st)
	}
	if plane.Metrics.Queries.Value() == 0 {
		t.Fatal("no DNSBL queries issued")
	}
}
