package dnszone

import (
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

var (
	t0 = simclock.PaperStart
	t1 = t0.AddDate(0, 0, 10)
	t2 = t0.AddDate(0, 0, 20)
	t3 = t0.AddDate(0, 0, 30)
)

// d is the symbol ID the single-domain tests register.
const d symtab.ID = 3

func TestRegisterAndActiveAt(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Register(d, t1)
	if r.ActiveAt(d, t0) {
		t.Error("active before registration")
	}
	if !r.ActiveAt(d, t1) {
		t.Error("not active at registration instant")
	}
	if !r.ActiveAt(d, t2) {
		t.Error("not active after registration")
	}
	if r.ActiveAt(d+1, t2) {
		t.Error("unregistered neighbour active")
	}
}

func TestDropEndsInterval(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Register(d, t1)
	r.Drop(d, t2)
	if !r.ActiveAt(d, t1) {
		t.Error("not active while registered")
	}
	if r.ActiveAt(d, t2) {
		t.Error("active at drop instant (interval is half-open)")
	}
	if r.ActiveAt(d, t3) {
		t.Error("active after drop")
	}
}

func TestRegisterIdempotentWhileActive(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Register(d, t0)
	r.Register(d, t1) // no-op
	r.Drop(d, t2)
	if r.ActiveAt(d, t3) {
		t.Error("second Register should not have opened a new interval")
	}
	if !r.ActiveAt(d, t0) {
		t.Error("second Register moved the registration instant")
	}
}

func TestDropInactiveNoop(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Drop(d, t1) // never registered; must not panic
	r.Register(d, t2)
	if !r.ActiveAt(d, t3) {
		t.Error("registration after stray drop should be active")
	}
}

func TestAppearedDuring(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Register(d, t1)
	r.Drop(d, t2)
	cases := []struct {
		w    simclock.Window
		want bool
	}{
		{simclock.Window{Start: t0, End: t1}, false},                // ends exactly at registration
		{simclock.Window{Start: t0, End: t1.Add(time.Hour)}, true},  // overlaps start
		{simclock.Window{Start: t2, End: t3}, false},                // starts exactly at drop
		{simclock.Window{Start: t1, End: t2}, true},                 // exact interval
		{simclock.Window{Start: t0, End: t3}, true},                 // covers
		{simclock.Window{Start: t2.Add(time.Hour), End: t3}, false}, // after
	}
	for i, c := range cases {
		if got := r.AppearedDuring(d, c.w); got != c.want {
			t.Errorf("case %d: AppearedDuring = %v, want %v", i, got, c.want)
		}
	}
	// Never registered, and beyond the registry's IDs (a name interned
	// after the registry was built).
	all := simclock.Window{Start: t0.AddDate(-10, 0, 0), End: t3.AddDate(10, 0, 0)}
	if r.AppearedDuring(d+1, all) || r.AppearedDuring(100, all) {
		t.Error("unregistered domain appeared")
	}
}

func TestStillActiveOverlapsAnyLaterWindow(t *testing.T) {
	r := NewPaperRegistry(8)
	r.Register(d, t0)
	w := simclock.Window{Start: t3, End: t3.AddDate(0, 0, 10)}
	if !r.AppearedDuring(d, w) {
		t.Error("still-registered domain should appear in later windows")
	}
}

func TestCoversTLD(t *testing.T) {
	r := NewPaperRegistry(0)
	for _, tld := range PaperZoneTLDs {
		if !r.CoversTLD(tld) {
			t.Errorf("paper registry should cover %q", tld)
		}
	}
	if r.CoversTLD("ru") {
		t.Error("paper registry should not cover ru")
	}
}

// TestConcurrentAccess reads a built registry from eight goroutines at
// once, as the labeling workers do; under -race it checks that queries
// take no lock and write nothing.
func TestConcurrentAccess(t *testing.T) {
	const n = 64
	r := NewPaperRegistry(n)
	for id := symtab.ID(1); id < n; id += 2 {
		r.Register(id, t0)
		if id%4 == 1 {
			r.Drop(id, t2)
		}
	}
	late := simclock.Window{Start: t3, End: t3.AddDate(0, 0, 10)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				for id := symtab.ID(0); id < n+4; id++ {
					registered := id < n && id%2 == 1
					dropped := registered && id%4 == 1
					if got := r.ActiveAt(id, t1); got != registered {
						t.Errorf("ActiveAt(%d) = %v, want %v", id, got, registered)
						return
					}
					if got := r.AppearedDuring(id, late); got != (registered && !dropped) {
						t.Errorf("AppearedDuring(%d) = %v", id, got)
						return
					}
					if !r.CoversTLD("com") {
						t.Error("com not covered")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
