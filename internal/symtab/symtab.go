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
// IDs. The engine guarantees that order by interning only from serial
// code (world generation, plan replay, the junk/poison phases);
// parallel phases hold pre-interned IDs and only call Lookup. The
// golden tests pin this down across worker counts.
//
// Concurrency: Intern/InternBytes are guarded by a mutex (single
// writer in practice), while Lookup is lock-free — strings live in
// fixed-size pages that are never moved, and a page slot is published
// by an atomic length store after the slot is written, so readers that
// observe an ID below Len always see its string.
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

// Table is an append-only string interner.
type Table struct {
	mu  sync.Mutex
	ids map[string]ID
	// auto caches the ID of the derived "http://<symbol>/" URL for
	// each symbol (see AutoURL); 0 means not yet derived.
	auto []ID

	// pages is the published page list; n is the published symbol
	// count. A slot is written before n covers it, and pages is
	// re-published (copy-on-write) before any slot of a new page is
	// reachable, so Lookup(id) for id < Len() is always safe.
	pages atomic.Pointer[[]*page]
	n     atomic.Uint32
}

// New returns an empty table with "" pre-interned as ID 0.
func New() *Table {
	t := &Table{ids: make(map[string]ID)}
	t.Intern("")
	return t
}

// Len returns the number of interned symbols.
func (t *Table) Len() int { return int(t.n.Load()) }

// Intern returns the ID for s, assigning the next dense ID on first
// sight. Safe for concurrent use, but ID assignment is deterministic
// only if first-intern order is; the engine interns serially.
func (t *Table) Intern(s string) ID {
	t.mu.Lock()
	id, ok := t.ids[s]
	if !ok {
		id = t.add(s)
	}
	t.mu.Unlock()
	return id
}

// InternBytes is Intern for a byte-slice key. The common hit path does
// not allocate: the map lookup uses the compiler's no-copy string
// conversion, and b is copied only when the symbol is new.
func (t *Table) InternBytes(b []byte) ID {
	t.mu.Lock()
	id, ok := t.ids[string(b)]
	if !ok {
		id = t.add(string(b))
	}
	t.mu.Unlock()
	return id
}

// add appends a new symbol. Caller holds mu.
func (t *Table) add(s string) ID {
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
	t.ids[s] = id
	t.n.Store(uint32(id) + 1) // publish after the slot write
	return id
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
	t.mu.Lock()
	id, ok := t.ids[s]
	t.mu.Unlock()
	return id, ok
}

// AutoURL returns the ID of the derived URL "http://<s>/" where s is
// id's symbol — the URL every honeypot-style feed synthesizes for a
// bare reported domain. The derivation is cached per symbol, so steady
// state is one array read with no string building. Like Intern it must
// only be called from serial code.
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
	buf := make([]byte, 0, len("http://")+len(s)+1)
	buf = append(buf, "http://"...)
	buf = append(buf, s...)
	buf = append(buf, '/')
	u, ok := t.ids[string(buf)]
	if !ok {
		u = t.add(string(buf))
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
