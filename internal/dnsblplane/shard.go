package dnsblplane

import (
	"slices"
	"sync"
	"sync/atomic"
)

// entry is one listed domain in a shard snapshot. It is complete by
// construction: a domain is either absent or carries its full listing
// record (first-seen time and originating feed), so a reader can never
// observe a half-applied delta.
type entry struct {
	// firstUnix is the first-observation time, Unix seconds (what the
	// TXT reason reports, mirroring feeds.DomainStat.First).
	firstUnix int64
	// feed indexes the zone's feed-name table.
	feed uint16
}

// bucketTarget is the mean number of names per bucket a shard keeps
// its fan-out at: when an apply could push the mean past it, the
// bucket count doubles. A delta batch copies every bucket it touches,
// so the target bounds what one name costs to publish; a lower target
// makes the bucket array longer.
const bucketTarget = 64

// snapshot is one immutable generation of a shard's index: a
// power-of-two array of buckets. A name's bucket comes from the high
// 32 bits of its hash, whose low bits picked the shard. Readers load
// the snapshot pointer once and do every lookup against that
// consistent view. Writers never write to a published snapshot or to
// any of its buckets, so consecutive generations share every bucket a
// batch did not touch.
type snapshot struct {
	buckets []bucket
	// n counts the distinct names across the buckets.
	n int
	// gen is the shard generation, bumped on every swap. The negative
	// cache keys its validity off this: a reload invalidates every
	// cached miss for the shard without touching the cache.
	gen uint64
}

// bucket is one bucket's hash table: linear probing over an array of
// slots sized to its names. A bucket is built at most 2/3 full
// (bucketSize) and a delta fills it to at most 3/4 before it is
// rebuilt, so every probe ends at a free slot within a few steps and a
// listed name costs about 1.5 slots. Unlike a Go map, copying a bucket
// copies one array and reads no name, and a lookup reaches the slots
// straight from the snapshot, without a map's header, directory and
// table in between; once deltas have replaced most buckets that
// metadata is scattered over the heap, and with a Go map per bucket
// the replayed queries answered ~25% slower than from one map per
// shard.
type bucket []slot

// slot is one listed name in a bucket. An empty name marks a free
// slot: Apply never lists the empty name.
type slot struct {
	name      string
	firstUnix int64
	// tag is the low half of the name's hash: a probe compares it
	// before the name, and a bucket that grows re-places its names by
	// it without reading them.
	tag  uint32
	feed uint16
}

// get looks up a folded name whose hashName is h.
func (s *snapshot) get(h uint64, name []byte) (entry, bool) {
	b := s.buckets[uint32(h>>32)&uint32(len(s.buckets)-1)]
	if len(b) == 0 {
		return entry{}, false
	}
	tag := uint32(h)
	for i := b.start(tag); b[i].name != ""; i = b.next(i) {
		if sl := &b[i]; sl.tag == tag && sl.name == string(name) {
			return entry{firstUnix: sl.firstUnix, feed: sl.feed}, true
		}
	}
	return entry{}, false
}

// start is the slot a probe for tag begins at. The tag's low bits are
// the shard index, the same for every name in the bucket, so a
// Fibonacci multiply mixes all its bits first; a multiply-shift then
// maps the mixed 32 bits onto the bucket's length, which need not be a
// power of two.
func (b bucket) start(tag uint32) uint32 {
	mixed := uint64(tag) * 0x9E3779B97F4A7C15 >> 32
	return uint32(mixed * uint64(len(b)) >> 32)
}

// next is the slot a probe visits after slot i, wrapping at the end.
func (b bucket) next(i uint32) uint32 {
	if i++; i == uint32(len(b)) {
		return 0
	}
	return i
}

// put lists a name in a bucket that is not yet published and has a
// free slot, keeping whichever listing is earlier when the name is
// already there (on a tie, the one already there). It reports whether
// the name is new.
func (b bucket) put(name string, tag uint32, e entry) bool {
	for i := b.start(tag); ; i = b.next(i) {
		sl := &b[i]
		switch {
		case sl.name == "":
			*sl = slot{name: name, firstUnix: e.firstUnix, tag: tag, feed: e.feed}
			return true
		case sl.tag == tag && sl.name == name:
			if e.firstUnix < sl.firstUnix {
				sl.firstUnix, sl.feed = e.firstUnix, e.feed
			}
			return false
		}
	}
}

// names counts the listed names in a bucket.
func (b bucket) names() int {
	n := 0
	for i := range b {
		if b[i].name != "" {
			n++
		}
	}
	return n
}

// bucketSize is the slot count a bucket of n names is built with: the
// smallest that keeps it at most 2/3 full and leaves a slot free.
func bucketSize(n int) int {
	return n + n/2 + 1
}

// shard is one slice of a zone's index: an RCU-style atomically
// swapped snapshot plus the shard's negative-answer cache. Reads are
// lock-free (one atomic pointer load); writers serialize on mu, copy
// the buckets their batch lands in, and publish the new snapshot with
// a single pointer store.
type shard struct {
	cur atomic.Pointer[snapshot]
	// mu serializes writers (delta application). Readers never take it.
	mu sync.Mutex
	// neg caches packed NXDOMAIN responses for this shard's names.
	neg negCache
}

// newShard returns a shard with an empty published snapshot.
func newShard(negSize int) *shard {
	sh := &shard{}
	sh.cur.Store(&snapshot{buckets: make([]bucket, 1)})
	sh.neg.init(negSize)
	return sh
}

// load returns the current snapshot. Lock-free; the returned snapshot
// and its buckets are immutable.
func (sh *shard) load() *snapshot {
	return sh.cur.Load()
}

// pending is one record of a batch on its way into a shard: its folded
// name, the name's hash and its listing.
type pending struct {
	name string
	h    uint64
	e    entry
}

// apply publishes a new snapshot holding every existing entry plus the
// batch, which must all hash to this shard. Earliest listing wins: a
// domain already listed keeps whichever record carries the earlier
// first-seen time, and on a tie the one already there, so applying
// records in any arrival order converges on the same index that
// feeds.Feed's min-time dedup would build. The whole batch becomes
// visible in one atomic swap: a concurrent reader sees either none of
// it or all of it, never a torn prefix.
//
// Only the buckets the batch lands in are copied; the new snapshot
// shares the rest with the old one. When the batch could push the
// mean bucket size past bucketTarget (counting every record as a new
// name), the bucket count doubles as often as needed and every bucket
// is rebuilt: a cost of O(shard) once per doubling, so O(1) per name
// amortized. scratch must be as long as batch; apply may overwrite it.
func (sh *shard) apply(batch, scratch []pending) {
	if len(batch) == 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.cur.Load()
	base, n := old.buckets, old.n
	nb := len(base)
	for n+len(batch) > nb*bucketTarget {
		nb <<= 1
	}
	if nb != len(base) {
		// Every bucket is rebuilt at the new fan-out: the old entries
		// go ahead of the batch, so a tie keeps the old record.
		if n > 0 {
			all := make([]pending, 0, n+len(batch))
			for _, b := range base {
				for _, sl := range b {
					if sl.name != "" {
						e := entry{firstUnix: sl.firstUnix, feed: sl.feed}
						all = append(all, pending{name: sl.name, h: hashName(sl.name), e: e})
					}
				}
			}
			batch = append(all, batch...)
			scratch = make([]pending, len(batch))
		}
		base, n = make([]bucket, nb), 0
	}
	// Build bucket by bucket, each new bucket sized from its count.
	start := groupBy(scratch, batch, uint32(nb-1))
	next := &snapshot{buckets: make([]bucket, nb), gen: old.gen + 1}
	copy(next.buckets, base)
	for b := range next.buckets {
		run := scratch[start[b]:start[b+1]]
		if len(run) == 0 {
			continue
		}
		// Copy the bucket while the run cannot fill it past 3/4, else
		// re-place its names in one sized at the 2/3 rule.
		prev := base[b]
		var m bucket
		if count := prev.names() + len(run); 4*count <= 3*len(prev) {
			m = slices.Clone(prev)
		} else {
			m = make(bucket, bucketSize(count))
			for _, sl := range prev {
				if sl.name != "" {
					m.put(sl.name, sl.tag, entry{firstUnix: sl.firstUnix, feed: sl.feed})
				}
			}
		}
		for _, p := range run {
			if m.put(p.name, uint32(p.h), p.e) {
				n++
			}
		}
		next.buckets[b] = m
	}
	next.n = n
	sh.cur.Store(next)
}

// groupBy copies src into dst, which must be as long, grouped by each
// record's bucket uint32(h>>32)&mask and in arrival order within a
// group (a counting sort). It returns the groups' bounds: group g is
// dst[start[g]:start[g+1]].
func groupBy(dst, src []pending, mask uint32) (start []int) {
	start = make([]int, mask+2)
	for i := range src {
		start[uint32(src[i].h>>32)&mask+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	// Place each record at its group's cursor; afterwards start[g]
	// holds the end of group g, which shifts back into place.
	for i := range src {
		g := uint32(src[i].h>>32) & mask
		dst[start[g]] = src[i]
		start[g]++
	}
	copy(start[1:], start[:mask+1])
	start[0] = 0
	return start
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a constants.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// hashName is 64-bit FNV-1a over a folded domain name. The low 32 bits
// pick the name's shard and the high 32 bits its bucket in the
// shard's snapshot. The same function runs on the write path (over
// the record's name) and the read path (over the normalized query
// bytes), so both sides always agree on placement.
func hashName[T string | []byte](name T) uint64 {
	var h uint64 = fnv1aOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnv1aPrime
	}
	return h
}

// lowerASCII folds an ASCII upper-case letter to lower case and leaves
// every other byte alone.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// foldName lowercases a name's ASCII letters and nothing else: DNS
// names compare case-insensitively over ASCII only (RFC 4343), so
// every path that keys, matches or looks up a name folds it this way,
// as the wire fast path does. A name with no upper-case ASCII letter
// comes back as it is, without allocating.
func foldName(name string) string {
	for i := 0; i < len(name); i++ {
		if lowerASCII(name[i]) != name[i] {
			b := []byte(name)
			for ; i < len(b); i++ {
				b[i] = lowerASCII(b[i])
			}
			return string(b)
		}
	}
	return name
}
