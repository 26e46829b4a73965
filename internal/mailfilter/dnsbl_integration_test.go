package mailfilter

import (
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailmsg"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simclock"
)

// TestFilterOverLiveDNSBL wires the filter to a real DNSBL server over
// UDP: the full operational path a production mail filter uses.
func TestFilterOverLiveDNSBL(t *testing.T) {
	feed := feeds.New("uribl", feeds.KindBlacklist, false, false)
	feed.ObserveOnce(simclock.PaperStart, "cheappills.com")
	plane, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "uribl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	plane.Metrics = dnsblplane.WireMetrics(obs.NewRegistry())
	if _, err := plane.LoadFeed("uribl.test", feed); err != nil {
		t.Fatal(err)
	}
	srv := &dnsblplane.Server{Plane: plane}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := dnsbl.NewClient(addr.String(), "uribl.test", 7)
	client.Timeout = 3 * time.Second
	filter := New(client)

	spam := &mailmsg.Message{Body: "act now: http://cheappills.com/p/c9"}
	v, err := filter.Classify(spam)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Spam {
		t.Fatalf("spam not caught via DNSBL: %+v", v)
	}
	ham := &mailmsg.Message{Body: "see http://conference.example.org/cfp"}
	v, err = filter.Classify(ham)
	if err != nil {
		t.Fatal(err)
	}
	if v.Spam {
		t.Fatalf("ham misclassified: %+v", v)
	}
	if plane.Metrics.Queries.Value() == 0 {
		t.Fatal("no queries reached the server")
	}
}
