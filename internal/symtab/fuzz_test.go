package symtab

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzInternLookupRoundTrip feeds arbitrary byte streams through the
// interner, split into chunks, and checks the core invariants: Lookup
// inverts Intern, equal strings share an ID, distinct strings never
// collide, IDs stay dense, and InternBytes agrees with Intern.
func FuzzInternLookupRoundTrip(f *testing.F) {
	f.Add([]byte("example.com\x00example.net\x00example.com"))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte("a\x00"), 300))
	// 600 distinct names grow the index several times over.
	var many []byte
	for i := 0; i < 600; i++ {
		many = fmt.Appendf(many, "name-%d.example\x00", i)
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New()
		seen := map[string]ID{"": 0}
		for _, chunk := range bytes.Split(data, []byte{0}) {
			s := string(chunk)
			id := tab.Intern(s)
			if prev, ok := seen[s]; ok {
				if id != prev {
					t.Fatalf("Intern(%q) = %d, previously %d", s, id, prev)
				}
			} else {
				if int(id) != len(seen) {
					t.Fatalf("Intern(%q) = %d, want dense %d", s, id, len(seen))
				}
				seen[s] = id
			}
			if got := tab.InternBytes(chunk); got != id {
				t.Fatalf("InternBytes(%q) = %d, Intern = %d", s, got, id)
			}
			if got := tab.Lookup(id); got != s {
				t.Fatalf("Lookup(%d) = %q, want %q", id, got, s)
			}
		}
		if tab.Len() != len(seen) {
			t.Fatalf("Len = %d, want %d distinct symbols", tab.Len(), len(seen))
		}
		for s, id := range seen {
			got, ok := tab.Find(s)
			if !ok || got != id {
				t.Fatalf("Find(%q) = (%d, %v), want (%d, true)", s, got, ok, id)
			}
		}
	})
}
