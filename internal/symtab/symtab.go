// Package symtab implements the deterministic, append-only symbol
// table the generation hot path is built around: domain names (and the
// URLs derived from them) are interned once into dense uint32 IDs, and
// every per-message structure downstream — feed observation buffers,
// columnar feed rows, webmail chain keys, oracle counters — carries the
// ID instead of the string. Strings survive only at the serialization
// edges (raw feed files, report writers), where Lookup recovers them
// without copying.
//
// Determinism contract: IDs are assigned in first-intern order, so two
// runs that intern the same strings in the same order assign the same
// IDs. The engine guarantees that order by interning on one goroutine
// at a time, in a fixed order: world generation, then the engine's
// mint goroutine (junk and poison names); campaign planning and the
// replay of buffered observations only call Lookup. The pinned and
// golden tests hold this down across builds and worker counts.
//
// Concurrency: Intern/InternBytes/AutoURL are guarded by a mutex
// (single writer in practice), while Lookup is lock-free — strings
// live in fixed-size pages that are never moved, and a page slot is
// published by an atomic length store after the slot is written, so
// readers that observe an ID below Len always see its string.
package symtab

import (
	"sync"
	"sync/atomic"
)

// ID is a dense interned-symbol identifier. The zero ID is always the
// empty string, so zero-valued rows read back as "".
type ID uint32

// pageShift sizes the string pages (1024 symbols per page). Pages are
// never reallocated once created, which is what makes Lookup safe
// without locks.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]string

// minIndex is the index's initial slot count (a power of two).
const minIndex = 64

// Table is an append-only string interner.
type Table struct {
	mu sync.Mutex
	// index maps strings to IDs by open addressing: a power-of-two
	// array of slots probed linearly from the key's hash, kept at most
	// half full. A slot packs the key's 32-bit hash tag (high word)
	// and its ID+1 (low word); 0 is an empty slot. The index holds no
	// pointers, and growth re-places slots by their tags without
	// reading or re-hashing a key.
	index []uint64
	// auto caches the ID of the derived "http://<symbol>/" URL for
	// each symbol (see AutoURL); 0 means not yet derived. urlBuf is
	// the scratch AutoURL builds a URL in.
	auto   []ID
	urlBuf []byte

	// pages is the published page list; n is the published symbol
	// count. A slot is written before n covers it, and pages is
	// re-published (copy-on-write) before any slot of a new page is
	// reachable, so Lookup(id) for id < Len() is always safe.
	pages atomic.Pointer[[]*page]
	n     atomic.Uint32
}

// New returns an empty table with "" pre-interned as ID 0.
func New() *Table {
	t := &Table{index: make([]uint64, minIndex)}
	t.Intern("")
	return t
}

// Len returns the number of interned symbols.
func (t *Table) Len() int { return int(t.n.Load()) }

// Intern returns the ID for s, assigning the next dense ID on first
// sight. Safe for concurrent use, but ID assignment is deterministic
// only if first-intern order is; the engine interns on one goroutine
// at a time.
func (t *Table) Intern(s string) ID { return intern(t, s) }

// InternBytes is Intern for a byte-slice key. The hit path does not
// allocate; b is copied only when the symbol is new.
func (t *Table) InternBytes(b []byte) ID { return intern(t, b) }

func intern[K string | []byte](t *Table, k K) ID {
	tag := hash(k)
	t.mu.Lock()
	pos, id, ok := probe(t, tag, k)
	if !ok {
		id = t.add(string(k), pos, tag)
	}
	t.mu.Unlock()
	return id
}

// hash returns the 32-bit tag of a key: a multiply-xorshift over
// 8-byte little-endian words, finished with a multiply whose high
// half is kept. Both key types hash alike, so InternBytes(b) finds
// Intern(string(b)).
func hash[K string | []byte](k K) uint32 {
	const m0, m1 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(len(k)) * m0
	for ; len(k) >= 8; k = k[8:] {
		w := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
		h = (h ^ w) * m1
		h ^= h >> 29
	}
	if len(k) > 0 {
		var w uint64
		for i := len(k) - 1; i >= 0; i-- {
			w = w<<8 | uint64(k[i])
		}
		h = (h ^ w) * m1
		h ^= h >> 29
	}
	return uint32((h * m0) >> 32)
}

// probe looks k up by its tag. It returns k's ID and true, or the
// empty slot where k belongs and false. Caller holds mu.
func probe[K string | []byte](t *Table, tag uint32, k K) (pos int, id ID, ok bool) {
	mask := len(t.index) - 1
	for pos = int(tag) & mask; ; pos = (pos + 1) & mask {
		slot := t.index[pos]
		if slot == 0 {
			return pos, 0, false
		}
		if uint32(slot>>32) == tag {
			id = ID(uint32(slot) - 1)
			if (*t.pages.Load())[id>>pageShift][id&pageMask] == string(k) {
				return pos, id, true
			}
		}
	}
}

// add appends a new symbol and indexes it at the empty slot pos that
// probe returned. Caller holds mu.
func (t *Table) add(s string, pos int, tag uint32) ID {
	id := ID(t.n.Load())
	pages := t.pages.Load()
	pi := int(id >> pageShift)
	if pages == nil || pi >= len(*pages) {
		// Copy-on-write page-list growth: readers keep the old list,
		// which still covers every published ID.
		var np []*page
		if pages != nil {
			np = make([]*page, len(*pages)+1)
			copy(np, *pages)
		} else {
			np = make([]*page, 1)
		}
		np[len(np)-1] = new(page)
		t.pages.Store(&np)
		pages = &np
	}
	// The slot write lands after pages.Store on purpose: the slot is
	// published by n.Store below, not by the page list — readers never
	// index past n, so the "mutation" is invisible until then.
	//lint:allow publishedmut -- slot id is published by n.Store, not pages.Store; readers never read past n
	(*pages)[pi][id&pageMask] = s
	t.index[pos] = uint64(tag)<<32 | uint64(id+1)
	t.n.Store(uint32(id) + 1) // publish after the slot write
	if 2*(int(id)+1) > len(t.index) {
		t.resize(2 * len(t.index))
	}
	return id
}

// Reserve makes room in the index for n more symbols than the table
// holds, so interning them never grows it: a caller that can bound
// what a phase interns sizes the index once, at its final size,
// instead of letting it double as the symbols arrive. IDs are
// unaffected.
func (t *Table) Reserve(n int) {
	t.mu.Lock()
	size := len(t.index)
	for 2*(t.Len()+n) > size {
		size *= 2
	}
	if size > len(t.index) {
		t.resize(size)
	}
	t.mu.Unlock()
}

// resize re-places every slot of the index into a new index of size
// slots, a power of two, from its stored tag. Caller holds mu.
func (t *Table) resize(size int) {
	next := make([]uint64, size)
	mask := len(next) - 1
	for _, slot := range t.index {
		if slot == 0 {
			continue
		}
		pos := int(slot>>32) & mask
		for next[pos] != 0 {
			pos = (pos + 1) & mask
		}
		next[pos] = slot
	}
	t.index = next
}

// Lookup returns the string for id. It is lock-free and safe
// concurrently with interning, provided id was obtained from a
// completed Intern call. Out-of-range IDs panic.
func (t *Table) Lookup(id ID) string {
	if uint32(id) >= t.n.Load() {
		panic("symtab: Lookup of unassigned ID")
	}
	pages := t.pages.Load()
	return (*pages)[id>>pageShift][id&pageMask]
}

// Find returns the ID for s without interning it. Unlike Lookup it
// takes the writer lock, so it is for cold paths (post-run analysis,
// tests), not per-message code.
func (t *Table) Find(s string) (ID, bool) {
	tag := hash(s)
	t.mu.Lock()
	_, id, ok := probe(t, tag, s)
	t.mu.Unlock()
	return id, ok
}

// AutoURL returns the ID of the derived URL "http://<s>/" where s is
// id's symbol — the URL every honeypot-style feed synthesizes for a
// bare reported domain. The derivation is cached per symbol, so steady
// state is one array read with no string building. Like Intern it
// assigns IDs, so it runs only where interning does.
func (t *Table) AutoURL(id ID) ID {
	t.mu.Lock()
	if int(id) >= len(t.auto) {
		// Grow geometrically: callers that derive a URL for every
		// fresh symbol would otherwise copy the whole cache per call.
		grown := make([]ID, max(int(t.n.Load()), 2*len(t.auto)))
		copy(grown, t.auto)
		t.auto = grown
	}
	if u := t.auto[id]; u != 0 {
		t.mu.Unlock()
		return u
	}
	s := t.lookupLocked(id)
	t.urlBuf = append(append(append(t.urlBuf[:0], "http://"...), s...), '/')
	tag := hash(t.urlBuf)
	pos, u, ok := probe(t, tag, t.urlBuf)
	if !ok {
		u = t.add(string(t.urlBuf), pos, tag)
	}
	t.auto[id] = u
	t.mu.Unlock()
	return u
}

// lookupLocked is Lookup for callers already holding mu.
func (t *Table) lookupLocked(id ID) string {
	if uint32(id) >= t.n.Load() {
		panic("symtab: Lookup of unassigned ID")
	}
	return (*t.pages.Load())[id>>pageShift][id&pageMask]
}
