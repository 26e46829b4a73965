package symtab

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
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

// meanDisplacement returns how far, on average, an occupied index
// slot sits past the slot its tag hashes to.
func meanDisplacement(tab *Table) float64 {
	mask := len(tab.index) - 1
	var sum, n int
	for pos, slot := range tab.index {
		if slot != 0 {
			sum += (pos - int(slot>>32)) & mask
			n++
		}
	}
	return float64(sum) / float64(n)
}

// TestIndexGrowth interns across eight doublings of the index, then
// reserves room for three times the table and interns into it. After
// each doubling and after the reservation it checks that every symbol
// is still found, that misses stay misses, that InternBytes and Intern
// agree without adding symbols, that derived URLs keep their IDs, and
// that the index is at most 3/4 full; once reserved, the index must
// not grow until the reserved symbols are in. Just before each
// doubling from 1024 slots up, when the index is fullest, the mean
// distance of a slot from its hashed position must stay at most 2:
// linear probing at 3/4 load averages 1.5 with a well-mixed hash, and
// a weak hash clusters far past that.
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
		if 4*n > 3*size {
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
	for growths, measured := 0, false; growths < 8; {
		// add interns at most two symbols; the next call may double.
		// Below 1024 slots the mean is too noisy to bound.
		if !measured && size >= 1024 && 4*(tab.Len()+2) > 3*size {
			d := meanDisplacement(tab)
			t.Logf("index of %d slots holding %d symbols: mean displacement %.2f", size, tab.Len(), d)
			if d > 2 {
				t.Fatalf("mean displacement %.2f exceeds 2", d)
			}
			measured = true
		}
		add()
		if len(tab.index) != size {
			growths++
			size = len(tab.index)
			measured = false
			check(fmt.Sprintf("growth %d", growths))
		}
	}

	extra := 3 * tab.Len()
	tab.Reserve(extra)
	reserved, want := len(tab.index), tab.Len()+extra
	// The smallest power of two that holds want symbols at 3/4 load.
	if reserved <= size || 4*want > 3*reserved || 4*want <= 3*(reserved/2) {
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
// looking up already-published IDs and comparing each string with the
// one interned, while the writer fills new pages and chunks.
func TestConcurrentLookupDuringIntern(t *testing.T) {
	tab := New()
	const total = 4 * pageSize
	names := make([]string, total+1) // names[id]; "" is ID 0
	for i := 1; i <= total; i++ {
		names[i] = fmt.Sprintf("concurrent-%d.net", i-1)
	}
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
					if got := tab.Lookup(ID(id)); got != names[id] {
						t.Errorf("Lookup(%d) = %q, want %q", id, got, names[id])
						return
					}
				}
			}
		}()
	}
	for _, s := range names[1:] {
		tab.Intern(s)
	}
	close(stop)
	wg.Wait()
	if tab.Len() != total+1 {
		t.Fatalf("Len = %d, want %d", tab.Len(), total+1)
	}
}

// TestLookupStableAcrossGrowth holds the chunk storage to its
// write-once rule: strings Lookup returned earlier still read the same
// after another 100k symbols fill new pages and chunks and the
// collector runs.
func TestLookupStableAcrossGrowth(t *testing.T) {
	tab := New()
	const early, later = 2000, 100_000
	got := make([]string, early)
	for i := range got {
		got[i] = tab.Lookup(tab.Intern(fmt.Sprintf("early-%d.example", i)))
	}
	var buf []byte
	for i := 0; i < later; i++ {
		buf = strconv.AppendInt(append(buf[:0], "later-"...), int64(i), 10)
		tab.InternBytes(buf)
	}
	runtime.GC()
	for i, s := range got {
		if want := fmt.Sprintf("early-%d.example", i); s != want {
			t.Fatalf("string %d read %q after growth, want %q", i, s, want)
		}
		if id, ok := tab.Find(s); !ok || tab.Lookup(id) != s {
			t.Fatalf("Find(%q) = (%d, %v) after growth", s, id, ok)
		}
	}
}

// TestInternBytesKeepsNoBuffer checks that InternBytes copies a new
// key: overwriting the caller's buffer afterwards changes nothing the
// table returns, and a hit does not take the buffer either.
func TestInternBytesKeepsNoBuffer(t *testing.T) {
	tab := New()
	buf := []byte("buffered.example")
	id := tab.InternBytes(buf)
	if tab.InternBytes(buf) != id {
		t.Fatal("second InternBytes of the same key assigned a new ID")
	}
	copy(buf, "XXXXXXXXXXXXXXXX")
	if got := tab.Lookup(id); got != "buffered.example" {
		t.Fatalf("Lookup after overwriting the key buffer = %q", got)
	}
	if got, ok := tab.Find("buffered.example"); !ok || got != id {
		t.Fatalf("Find after overwriting the key buffer = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestSymbolLengths round-trips the empty string and symbols at and
// around the chunk cap, up to a 2 MiB symbol that needs its own chunk
// and a length wider than a location's length field, with short
// symbols before and after each.
func TestSymbolLengths(t *testing.T) {
	tab := New()
	ids := map[string]ID{}
	for i, n := range []int{0, 1, maxChunk - 1, maxChunk, maxChunk + 1, 2 << 20, 5} {
		long := strings.Repeat(string(rune('a'+i)), n)
		short := fmt.Sprintf("short-%d.example", i)
		ids[short] = tab.Intern(short)
		ids[long] = tab.Intern(long)
	}
	if ids[""] != 0 {
		t.Fatalf("Intern(\"\") = %d, want 0", ids[""])
	}
	for s, id := range ids {
		if got := tab.Lookup(id); got != s {
			t.Fatalf("Lookup(%d) has length %d, want %d", id, len(got), len(s))
		}
		if got, ok := tab.Find(s); !ok || got != id {
			t.Fatalf("Find of a %d-byte symbol = (%d, %v), want (%d, true)", len(s), got, ok, id)
		}
	}
}

// TestInternAllocatesInChunks interns 100k fresh symbols and counts
// the heap objects made: pages, chunks and index growth are a few
// hundred, where a string per symbol would be 100k.
func TestInternAllocatesInChunks(t *testing.T) {
	tab := New()
	const n = 100_000
	buf := make([]byte, 0, 32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(append(buf[:0], "fresh-"...), int64(i), 10)
		tab.InternBytes(buf)
	}
	runtime.ReadMemStats(&after)
	if tab.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", tab.Len(), n+1)
	}
	if objs := after.Mallocs - before.Mallocs; objs >= 1000 {
		t.Fatalf("interning %d symbols made %d heap objects, want fewer than 1000", n, objs)
	}
}
