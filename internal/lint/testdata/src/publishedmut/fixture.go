// Fixture for the publishedmut analyzer; the test runs it under the
// engine import path tasterschoice/internal/dnsblplane. The bad cases
// reintroduce the shape of the historical dnsblplane bug: a snapshot
// mutated after atomic.Pointer.Store had already published it to
// concurrent readers.
package fixture

import (
	"slices"
	"sync/atomic"
)

type snapshot struct {
	serial  int
	entries map[string]int
	order   []string
	buckets []bucket
}

type shard struct {
	cur atomic.Pointer[snapshot]
}

// badDirect is the reintroduced historical bug: the apply path once
// bumped the serial on the snapshot it had already published, racing
// every lock-free reader.
func badDirect(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	next.serial++ // want "write to next after it was published"
}

func badField(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	next.entries["a"] = 1 // want "write to next after it was published"
}

func badSliceField(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	next.order = append(next.order, "x") // want "write to next after it was published"
}

// badAlias shows the freeze following a local alias of published
// structure.
func badAlias(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	m := next.entries
	m["a"] = 1 // want "write to next after it was published"
}

func badDelete(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	delete(next.entries, "a") // want "delete from next after it was published"
}

// badCAS: CompareAndSwap publishes its new-value argument just like
// Store does.
func badCAS(sh *shard, old, next *snapshot) {
	if sh.cur.CompareAndSwap(old, next) {
		next.serial = 2 // want "write to next after it was published"
	}
}

// scrub writes through its parameter; the analyzer learns that from
// its mutation mask, not from the call site.
func scrub(s *snapshot) {
	s.serial = 0
}

func badHelper(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	scrub(next) // want "next escapes to fixture.scrub, which writes through it"
}

func (s *snapshot) bump() { s.serial++ }

func badMethod(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	next.bump() // want "next escapes to fixture.snapshot.bump, which writes through it"
}

// badClosure: a goroutine capturing the published snapshot mutates it
// strictly after publication.
func badClosure(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	go func() {
		next.serial++ // want "write to next after it was published"
	}()
}

// okRebindInBranch: a value published and rebound in the same block
// is fresh after it on every path.
func okRebindInBranch(sh *shard, next *snapshot, again bool) {
	if again {
		sh.cur.Store(next)
		next = &snapshot{}
	}
	next.serial = 1
	sh.cur.Store(next)
}

// bucket is one copy-on-write bucket of a snapshot: readers Load the
// snapshot without a lock, so every bucket a loaded one holds is
// shared with them.
type bucket []string

// put writes through a local pointer into the bucket's array; its
// mutation mask still marks the receiver written.
func (b bucket) put(name string) {
	slot := &b[len(name)%len(b)]
	*slot = name
}

// badLoadedAlias is dnsblplane's copy-on-write apply with its copy
// dropped (m = prev where slices.Clone(prev) belongs): it fills a
// bucket the loaded snapshot still holds. Rebinding base on the
// growth branch does not thaw it for the other branch.
func badLoadedAlias(sh *shard, name string, nb int) {
	old := sh.cur.Load()
	base := old.buckets
	if nb != len(base) {
		base = make([]bucket, nb)
	}
	next := &snapshot{buckets: make([]bucket, len(base))}
	for b := range next.buckets {
		prev := base[b]
		var m bucket
		if len(prev) > 0 {
			m = prev
		} else {
			m = make(bucket, 8)
		}
		m[0] = name // want "write to old after it was published"
		m.put(name) // want "old escapes to fixture.bucket.put, which writes through it"
		next.buckets[b] = m
	}
	sh.cur.Store(next)
}

// okLoadedClone is badLoadedAlias as it should be: the bucket is
// copied before the writes.
func okLoadedClone(sh *shard, name string) {
	old := sh.cur.Load()
	next := &snapshot{buckets: make([]bucket, len(old.buckets))}
	for b := range next.buckets {
		prev := old.buckets[b]
		var m bucket
		if len(prev) > 0 {
			m = slices.Clone(prev)
		} else {
			m = make(bucket, 8)
		}
		m[0] = name
		m.put(name)
		next.buckets[b] = m
	}
	sh.cur.Store(next)
}

func badLoadedWrite(sh *shard) {
	sh.cur.Load().buckets[0] = nil // want "write to sh.cur.Load"
}

// okBuildThenPublish is the sanctioned shape: build fully, publish
// last, never touch again.
func okBuildThenPublish(sh *shard, src map[string]int) {
	next := &snapshot{entries: make(map[string]int, len(src))}
	for k, v := range src {
		next.entries[k] = v
	}
	next.serial = 1
	sh.cur.Store(next)
}

// okRebind: rebinding the name to a fresh value thaws it — the new
// value is unpublished.
func okRebind(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	next = &snapshot{}
	next.serial = 1
	sh.cur.Store(next)
}

// okRead: reading published state is the whole point of RCU.
func okRead(sh *shard, next *snapshot) int {
	sh.cur.Store(next)
	return next.serial
}

// okInspect: passing the published value to a non-mutating helper is
// fine — inspect's mutation mask is empty.
func inspect(s *snapshot) int { return s.serial }

func okInspect(sh *shard, next *snapshot) int {
	sh.cur.Store(next)
	return inspect(next)
}

// allowed documents a deliberate write-after-store (the symtab page
// pattern, where a later fence does the real publish).
func allowed(sh *shard, next *snapshot) {
	sh.cur.Store(next)
	//lint:allow publishedmut -- fixture: slot is published by a later fence, mirroring symtab's n.Store
	next.serial++
}
