package symtab

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestEmptyStringIsIDZero(t *testing.T) {
	tab := New()
	if got := tab.Intern(""); got != 0 {
		t.Fatalf("Intern(\"\") = %d, want 0", got)
	}
	if got := tab.Lookup(0); got != "" {
		t.Fatalf("Lookup(0) = %q, want \"\"", got)
	}
}

func TestInternAssignsDenseIDsInFirstSeenOrder(t *testing.T) {
	tab := New()
	words := []string{"example.com", "other.net", "example.com", "third.org"}
	want := []ID{1, 2, 1, 3}
	for i, w := range words {
		if got := tab.Intern(w); got != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", w, got, want[i])
		}
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
}

func TestInternBytesMatchesIntern(t *testing.T) {
	tab := New()
	a := tab.Intern("pillshop.com")
	b := tab.InternBytes([]byte("pillshop.com"))
	if a != b {
		t.Fatalf("InternBytes = %d, Intern = %d", b, a)
	}
}

func TestLookupRoundTripAcrossPages(t *testing.T) {
	tab := New()
	const n = 3*pageSize + 17 // force several page allocations
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		ids[i] = tab.Intern(fmt.Sprintf("domain-%d.com", i))
	}
	for i, id := range ids {
		want := fmt.Sprintf("domain-%d.com", i)
		if got := tab.Lookup(id); got != want {
			t.Fatalf("Lookup(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestFind(t *testing.T) {
	tab := New()
	id := tab.Intern("findme.com")
	got, ok := tab.Find("findme.com")
	if !ok || got != id {
		t.Fatalf("Find = (%d, %v), want (%d, true)", got, ok, id)
	}
	if _, ok := tab.Find("absent.com"); ok {
		t.Fatal("Find of absent symbol reported ok")
	}
}

// TestIndexGrowth interns across four doublings of the index, then
// reserves room for three times the table and interns into it. After
// each doubling and after the reservation it checks that every symbol
// is still found, that misses stay misses, that InternBytes and Intern
// agree without adding symbols, that derived URLs keep their IDs, and
// that the index is at most half full; once reserved, the index must
// not grow until the reserved symbols are in.
func TestIndexGrowth(t *testing.T) {
	tab := New()
	ids := map[string]ID{"": 0}
	urls := map[ID]ID{} // symbol → its AutoURL
	i := 0
	add := func() {
		s := fmt.Sprintf("grow-%d.example", i)
		ids[s] = tab.Intern(s)
		if i%3 == 0 {
			urls[ids[s]] = tab.AutoURL(ids[s])
			ids["http://"+s+"/"] = urls[ids[s]]
		}
		i++
	}
	check := func(stage string) {
		t.Helper()
		size, n := len(tab.index), tab.Len()
		if 2*n > size {
			t.Fatalf("%s: index of %d slots holds %d symbols", stage, size, n)
		}
		for s, id := range ids {
			if got, ok := tab.Find(s); !ok || got != id {
				t.Fatalf("%s: Find(%q) = (%d, %v), want (%d, true)", stage, s, got, ok, id)
			}
			if b, in := tab.InternBytes([]byte(s)), tab.Intern(s); b != id || in != id {
				t.Fatalf("%s: InternBytes(%q) = %d, Intern = %d, want %d", stage, s, b, in, id)
			}
			if _, ok := tab.Find(s + "x"); ok {
				t.Fatalf("%s: Find(%q) hit an absent symbol", stage, s+"x")
			}
		}
		for d, u := range urls {
			if got := tab.AutoURL(d); got != u {
				t.Fatalf("%s: AutoURL(%d) = %d, was %d", stage, d, got, u)
			}
		}
		if tab.Len() != n {
			t.Fatalf("%s: lookups of interned symbols grew the table from %d to %d", stage, n, tab.Len())
		}
	}
	size := len(tab.index)
	for growths := 0; growths < 4; {
		add()
		if len(tab.index) != size {
			growths++
			size = len(tab.index)
			check(fmt.Sprintf("growth %d", growths))
		}
	}

	extra := 3 * tab.Len()
	tab.Reserve(extra)
	reserved := len(tab.index)
	if reserved <= size || 2*(tab.Len()+extra) > reserved || reserved >= 4*(tab.Len()+extra) {
		t.Fatalf("Reserve(%d) at %d symbols: index of %d slots, was %d", extra, tab.Len(), reserved, size)
	}
	check("reserved")
	tab.Reserve(extra) // already room: a no-op
	if len(tab.index) != reserved {
		t.Fatalf("second Reserve resized the index to %d slots", len(tab.index))
	}
	for want := tab.Len() + extra; tab.Len() < want; {
		add()
		if len(tab.index) != reserved {
			t.Fatalf("index grew to %d slots at %d of %d reserved symbols", len(tab.index), tab.Len(), want)
		}
	}
	check("filled")
}

func TestAutoURL(t *testing.T) {
	tab := New()
	d := tab.Intern("cheappills.com")
	u := tab.AutoURL(d)
	if got := tab.Lookup(u); got != "http://cheappills.com/" {
		t.Fatalf("AutoURL string = %q", got)
	}
	if again := tab.AutoURL(d); again != u {
		t.Fatalf("AutoURL not stable: %d then %d", u, again)
	}
	// The derived URL is a plain symbol: interning the same string
	// must return the same ID.
	if got := tab.Intern("http://cheappills.com/"); got != u {
		t.Fatalf("Intern of derived URL = %d, want %d", got, u)
	}
}

// TestAutoURLScalesLinearly derives a URL for every fresh symbol, the
// pattern of the engine's poison phase, and checks that the heap bytes
// allocated per call stay flat as the table grows eightfold. A cache
// regrown to exactly Len on each call allocates in proportion to the
// table size, so the per-call bytes would grow about eightfold too.
func TestAutoURLScalesLinearly(t *testing.T) {
	perCall := func(n int) float64 {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("fresh-%d.com", i)
		}
		tab := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, s := range names {
			tab.AutoURL(tab.Intern(s))
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const n = 2048
	small, large := perCall(n), perCall(8*n)
	if large > 2*small {
		t.Fatalf("AutoURL allocates %.0f B/call at %d symbols but %.0f B/call at %d",
			small, n, large, 8*n)
	}
}

func TestLookupPanicsOnUnassignedID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range Lookup")
		}
	}()
	New().Lookup(99)
}

// TestConcurrentLookupDuringIntern exercises the lock-free reader
// contract under the race detector: one writer interning, many readers
// looking up already-published IDs.
func TestConcurrentLookupDuringIntern(t *testing.T) {
	tab := New()
	const total = 4 * pageSize
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := tab.Len()
				for id := 0; id < n; id++ {
					if tab.Lookup(ID(id)) == "missing" {
						t.Error("impossible symbol")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		tab.Intern(fmt.Sprintf("concurrent-%d.net", i))
	}
	close(stop)
	wg.Wait()
	if tab.Len() != total+1 {
		t.Fatalf("Len = %d, want %d", tab.Len(), total+1)
	}
}
