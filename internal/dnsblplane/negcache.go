package dnsblplane

import (
	"bytes"
	"sync"
	"time"
)

// negCache is a bounded TTL cache of packed NXDOMAIN responses, one
// per shard. Real resolver floods repeat the same missing names (junk
// campaigns churn through unregistered domains faster than resolvers
// forget them), so a repeated miss should cost a lookup and a copy,
// not a parse, a shard lookup and a response build.
//
// Entries are validated two ways on read: against the wall of their
// TTL, and against the shard generation captured at insert — a
// hot-reload swap bumps the generation, so every cached miss for that
// shard dies instantly without the writer touching the cache. FIFO
// ring eviction bounds memory: when the cache is full the oldest key
// is overwritten, no heap, no LRU bookkeeping.
//
// Each ring slot owns its key and response buffers and reuses them
// when it is overwritten, so once every slot has held a miss, storing
// one more allocates nothing (unless it is longer than any the slot
// held before).
type negCache struct {
	mu sync.Mutex
	// slots is the FIFO ring; an insert claims slots[next].
	slots []negSlot
	next  int
	// heads indexes the slots by key hash: heads[hash&mask] is 1 + the
	// first slot of that hash chain (0: none), and each slot links the
	// next one through its chain field.
	heads []int32
	mask  uint32
}

// negSlot is one cached negative answer.
type negSlot struct {
	// key is the exact wire question section (name bytes as sent, plus
	// qtype/qclass), empty while the slot is free. Keying on the raw
	// bytes keeps 0x20-mixed-case queries distinct, so the echoed
	// question in a cached response always matches what the client
	// asked.
	key []byte
	// resp is the full packed response; the caller patches ID and RD
	// per query.
	resp []byte
	// h is the key's hash, the one its chain is filed under.
	h uint32
	// chain is 1 + the next slot in the same hash chain (0: none).
	chain int32
	// expires is the absolute expiry (Unix nanos on the injected
	// clock).
	expires int64
	// gen is the shard generation the miss was computed against.
	gen uint64
}

// init sizes the cache. size <= 0 disables it.
func (c *negCache) init(size int) {
	if size <= 0 {
		return
	}
	c.slots = make([]negSlot, size)
	n := 1
	for n < size {
		n <<= 1
	}
	c.heads = make([]int32, n)
	c.mask = uint32(n - 1)
}

// find returns the slot holding key, whose hash is h, or -1. The
// caller holds mu.
func (c *negCache) find(key []byte, h uint32) int {
	for i := c.heads[h&c.mask]; i != 0; i = c.slots[i-1].chain {
		if s := &c.slots[i-1]; s.h == h && bytes.Equal(s.key, key) {
			return int(i - 1)
		}
	}
	return -1
}

// get appends the cached response for the question key to dst when
// one is still live under the TTL clock and the shard generation
// matches, and reports whether it did. h is any hash determined by
// key alone; the same function must feed put. The copy happens under
// the lock, because put reuses a slot's buffers.
func (c *negCache) get(dst, key []byte, h uint32, gen uint64, now time.Time) ([]byte, bool) {
	if len(c.slots) == 0 {
		return dst, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(key, h)
	if i < 0 {
		return dst, false
	}
	s := &c.slots[i]
	if s.gen != gen || now.UnixNano() >= s.expires {
		return dst, false
	}
	return append(dst, s.resp...), true
}

// put caches a packed negative response under key, whose hash is h.
// The key and response are copied into the slot's own buffers;
// callers keep ownership of theirs.
func (c *negCache) put(key, resp []byte, h uint32, gen uint64, expires time.Time) {
	if len(c.slots) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.find(key, h)
	if i < 0 {
		// Claim the FIFO slot, unfiling the key it evicts.
		i = c.next
		c.next = (c.next + 1) % len(c.slots)
		s := &c.slots[i]
		if len(s.key) > 0 {
			link := &c.heads[s.h&c.mask]
			for *link != int32(i+1) {
				link = &c.slots[*link-1].chain
			}
			*link = s.chain
		}
		s.key = append(s.key[:0], key...)
		s.h, s.chain = h, c.heads[h&c.mask]
		c.heads[h&c.mask] = int32(i + 1)
	}
	s := &c.slots[i]
	s.resp = append(s.resp[:0], resp...)
	s.expires, s.gen = expires.UnixNano(), gen
}
