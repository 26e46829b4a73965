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
// Storage holds no per-symbol heap object and no pointer per symbol.
// A new symbol's bytes are appended to the newest byte chunk; chunks
// start small and double up to a cap, and a symbol longer than the cap
// gets a chunk of its own. The symbol's page slot holds its location,
// a uint64 packing chunk index, offset and length, and Lookup builds
// the string over the chunk bytes with unsafe.String. That is sound
// because of three invariants:
//
//   - chunk bytes are written once: a symbol's bytes go into the free
//     tail of a chunk, are never overwritten, and a chunk is never
//     moved, reused or freed while the table is reachable;
//   - the chunk list is published (copy-on-write) before any location
//     that points into a new chunk is written;
//   - n.Store publishes both the page slot and the bytes it locates,
//     and readers never read past n.
//
// Concurrency: Intern/InternBytes/AutoURL are guarded by a mutex
// (single writer in practice), while Lookup is lock-free — page slots
// live in fixed-size pages that are never moved, and by the invariants
// above a reader that observes an ID below Len sees its slot and its
// bytes.
package symtab

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// ID is a dense interned-symbol identifier. The zero ID is always the
// empty string, so zero-valued rows read back as "".
type ID uint32

// pageShift sizes the location pages (1024 symbols per page). Pages
// are never reallocated once created, which is what makes Lookup safe
// without locks.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]uint64

// A location packs a symbol's chunk index (high 24 bits), its byte
// offset in the chunk (20 bits) and its length (low 20 bits). A length
// of ownChunk marks a symbol longer than maxChunk, which is its whole
// chunk. Shared chunks hold at most maxChunk bytes, so every other
// offset and length fits its field.
const (
	lenBits    = 20
	offBits    = 20
	lenMask    = 1<<lenBits - 1
	offMask    = 1<<offBits - 1
	chunkShift = lenBits + offBits
	maxChunks  = 1 << (64 - chunkShift)
	ownChunk   = lenMask
)

// Shared chunks start at minChunk bytes and double up to maxChunk, so
// a table of a few symbols stays small and a large one takes a new
// chunk only every maxChunk bytes.
const (
	minChunk = 1 << 10
	maxChunk = 1 << 18
)

// minIndex is the index's initial slot count (a power of two).
const minIndex = 64

// Table is an append-only string interner.
type Table struct {
	mu sync.Mutex
	// index maps strings to IDs by open addressing: a power-of-two
	// array of slots probed linearly from the key's hash, kept at most
	// 3/4 full. A slot packs the key's 32-bit hash tag (high word)
	// and its ID+1 (low word); 0 is an empty slot. The index holds no
	// pointers, and growth re-places slots by their tags without
	// reading or re-hashing a key.
	index []uint64
	// auto caches the ID of the derived "http://<symbol>/" URL for
	// each symbol (see AutoURL); 0 means not yet derived. urlBuf is
	// the scratch AutoURL builds a URL in.
	auto   []ID
	urlBuf []byte
	// tail is the newest shared chunk up to its last written byte, and
	// tailChunk its index: new bytes are appended within its capacity,
	// past every published location.
	tail      []byte
	tailChunk uint64

	// chunks, pages and n are what Lookup reads: the published chunk
	// list, the published page list and the published symbol count.
	// Both lists grow by copy-on-write, so readers keep the old list,
	// which still covers every published ID.
	chunks atomic.Pointer[[][]byte]
	pages  atomic.Pointer[[]*page]
	n      atomic.Uint32
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
func (t *Table) Intern(s string) ID {
	tag := hash(s)
	t.mu.Lock()
	id := t.intern(tag, s)
	t.mu.Unlock()
	return id
}

// InternBytes is Intern for a byte-slice key. It reads b through a
// string view and copies it only when the symbol is new, so a hit
// allocates nothing and the table keeps nothing of b.
func (t *Table) InternBytes(b []byte) ID { return t.Intern(view(b)) }

// view returns a string over b's bytes without copying them. The
// result must not outlive the call it is passed to.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// intern returns s's ID, adding s when it is new. Caller holds mu.
func (t *Table) intern(tag uint32, s string) ID {
	pos, id, ok := t.probe(tag, s)
	if !ok {
		id = t.add(s, pos, tag)
	}
	return id
}

// hash returns the 32-bit tag of a key: a multiply-xorshift over
// 8-byte little-endian words, finished with a multiply whose high
// half is kept.
func hash(k string) uint32 {
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

// probe looks s up by its tag. It returns s's ID and true, or the
// empty slot where s belongs and false. Caller holds mu.
func (t *Table) probe(tag uint32, s string) (pos int, id ID, ok bool) {
	mask := len(t.index) - 1
	for pos = int(tag) & mask; ; pos = (pos + 1) & mask {
		slot := t.index[pos]
		if slot == 0 {
			return pos, 0, false
		}
		if uint32(slot>>32) == tag {
			id = ID(uint32(slot) - 1)
			if t.symbol(id) == s {
				return pos, id, true
			}
		}
	}
}

// add appends a new symbol and indexes it at the empty slot pos that
// probe returned. Caller holds mu.
func (t *Table) add(s string, pos int, tag uint32) ID {
	id := ID(t.n.Load())
	loc := t.store(s)
	if id&pageMask == 0 {
		publish(&t.pages, new(page))
	}
	// The slot write lands after pages.Store on purpose: the slot is
	// published by n.Store below, not by the page list — readers never
	// index past n, so the "mutation" is invisible until then.
	//lint:allow publishedmut -- slot id is published by n.Store, not pages.Store; readers never read past n
	(*t.pages.Load())[id>>pageShift][id&pageMask] = loc
	t.index[pos] = uint64(tag)<<32 | uint64(id+1)
	t.n.Store(uint32(id) + 1) // publish after the slot write
	if 4*(int(id)+1) > 3*len(t.index) {
		t.resize(2 * len(t.index))
	}
	return id
}

// store copies s into chunk storage and returns its location. Caller
// holds mu.
func (t *Table) store(s string) uint64 {
	if len(s) > maxChunk {
		return t.newChunk([]byte(s))<<chunkShift | ownChunk
	}
	if len(s) > cap(t.tail)-len(t.tail) {
		size := max(min(2*cap(t.tail), maxChunk), minChunk, len(s))
		c := make([]byte, size)
		t.tailChunk = t.newChunk(c)
		t.tail = c[:0]
	}
	loc := t.tailChunk<<chunkShift | uint64(len(t.tail))<<lenBits | uint64(len(s))
	// The chunk is already published, but no location points at its
	// tail yet: these bytes are published by n.Store, like the slot.
	t.tail = append(t.tail, s...)
	return loc
}

// newChunk publishes c as the next chunk and returns its index. Caller
// holds mu.
func (t *Table) newChunk(c []byte) uint64 {
	i := publish(&t.chunks, c)
	if i >= maxChunks {
		panic("symtab: chunk index overflows its location field")
	}
	return uint64(i)
}

// publish appends v to the list p points to by copy-on-write, so
// readers that loaded the old list keep a valid one, publishes the new
// list and returns v's index. Caller holds mu.
func publish[T any](p *atomic.Pointer[[]T], v T) int {
	var next []T
	if old := p.Load(); old != nil {
		next = make([]T, len(*old), len(*old)+1)
		copy(next, *old)
	}
	next = append(next, v)
	p.Store(&next)
	return len(next) - 1
}

// symbol returns the string of id, which must be below n. The string
// shares the chunk's bytes.
func (t *Table) symbol(id ID) string {
	loc := (*t.pages.Load())[id>>pageShift][id&pageMask]
	n := int(loc & lenMask)
	if n == 0 {
		return ""
	}
	c := (*t.chunks.Load())[loc>>chunkShift]
	if n == ownChunk {
		return view(c)
	}
	return unsafe.String(&c[loc>>lenBits&offMask], n)
}

// Reserve makes room for n more symbols than the table holds, so
// interning them never grows the index and deriving their URLs never
// grows the AutoURL cache: a caller that can bound what a phase
// interns sizes both once, at their final size, instead of letting
// them double as the symbols arrive. IDs are unaffected.
func (t *Table) Reserve(n int) {
	t.mu.Lock()
	want := t.Len() + n
	size := len(t.index)
	for 4*want > 3*size {
		size *= 2
	}
	if size > len(t.index) {
		t.resize(size)
	}
	if want > len(t.auto) {
		t.growAuto(want)
	}
	t.mu.Unlock()
}

// growAuto extends the AutoURL cache to n entries. Caller holds mu.
func (t *Table) growAuto(n int) {
	grown := make([]ID, n)
	copy(grown, t.auto)
	t.auto = grown
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

// Lookup returns the string for id. It is lock-free, allocation-free
// and safe concurrently with interning, provided id was obtained from
// a completed Intern call. Out-of-range IDs panic.
func (t *Table) Lookup(id ID) string {
	if uint32(id) >= t.n.Load() {
		panic("symtab: Lookup of unassigned ID")
	}
	return t.symbol(id)
}

// Find returns the ID for s without interning it. Unlike Lookup it
// takes the writer lock, so it is for cold paths (post-run analysis,
// tests), not per-message code.
func (t *Table) Find(s string) (ID, bool) {
	tag := hash(s)
	t.mu.Lock()
	_, id, ok := t.probe(tag, s)
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
		t.growAuto(max(int(t.n.Load()), 2*len(t.auto)))
	}
	if u := t.auto[id]; u != 0 {
		t.mu.Unlock()
		return u
	}
	t.urlBuf = append(append(append(t.urlBuf[:0], "http://"...), t.Lookup(id)...), '/')
	url := view(t.urlBuf)
	u := t.intern(hash(url), url)
	t.auto[id] = u
	t.mu.Unlock()
	return u
}
