package mailflow

import (
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/obs"
	"tasterschoice/internal/simclock"
)

// TestGoldenEngineInertUnderInstrumentation is the determinism half of
// the observability contract: a fully instrumented run (metrics +
// tracer) produces the byte-identical result of a bare run.
func TestGoldenEngineInertUnderInstrumentation(t *testing.T) {
	want := runFingerprint(t, 4)

	reg := obs.NewRegistry()
	// The mint goroutine records its span beside the Run goroutine's
	// phases, so the clock must be safe for concurrent use.
	var clockMu sync.Mutex
	clock := simclock.PaperStart
	tracer := obs.NewTracer(64, func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(time.Second)
		return clock
	})
	cfg := testConfig(7001)
	cfg.Workers = 4
	eng := New(goldenWorld(), cfg)
	eng.Metrics = NewMetrics(reg)
	eng.Tracer = tracer
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(res) != want {
		t.Fatal("instrumented run diverged from bare run")
	}

	world := goldenWorld()
	if got := eng.Metrics.CampaignsPlanned.Value(); got != int64(len(world.Campaigns)) {
		t.Fatalf("campaigns planned = %d, want %d", got, len(world.Campaigns))
	}
	if eng.Metrics.Observations.Value() == 0 {
		t.Fatal("no observations counted")
	}
	if eng.Metrics.WebmailBatches.Value() == 0 {
		t.Fatal("no webmail batches counted")
	}

	// Every run phase recorded a span.
	seen := map[string]bool{}
	for _, s := range tracer.Spans() {
		seen[s.Name] = true
	}
	for _, phase := range []string{
		"mint", "observeCampaigns", "typoTraffic", "sizeFeeds", "honeypotJunk", "poison",
		"huJunk", "blacklistJunk", "benignBaseline", "restrictBlacklists",
	} {
		if !seen[phase] {
			t.Errorf("phase %q has no span", phase)
		}
	}
}
