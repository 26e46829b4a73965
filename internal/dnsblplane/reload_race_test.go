package dnsblplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tasterschoice/internal/simclock"
)

// TestHotReloadRace is the RCU torture test: 8 reader goroutines
// hammer queries while a writer applies feedsync-style deltas that
// swap shard snapshots underneath them. The zone starts empty and ends
// with 640 names per shard, so every shard's fan-out doubles from one
// bucket to sixteen mid-run: the readers race both the bucket-copying
// path and the full rebuild. Run under -race it proves the lock-free
// read path; the assertions prove the swap is never torn:
//
//   - Atomicity. Each delta batch is crafted so all its domains land in
//     one shard, spread over its buckets; a snapshot loaded mid-run
//     must contain a batch completely or not at all.
//   - Monotonicity. Listings only accumulate, so once a reader has seen
//     a domain listed it must never be answered NXDOMAIN again.
//   - Validity. Every response is a well-formed NOERROR or NXDOMAIN for
//     the queried name; nothing in between ever escapes.
func TestHotReloadRace(t *testing.T) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	z := p.zones[0]

	// Build 64 delta batches of 40 domains each, every batch confined to
	// one shard so readers can assert all-or-nothing visibility.
	const batches = 64
	const perBatch = 40
	batch := make([][]Record, batches)
	names := make([]string, 0, batches*perBatch)
	for b := 0; b < batches; b++ {
		shard := uint32(b) & z.mask
		for len(batch[b]) < perBatch {
			name := fmt.Sprintf("dom-%d-%d.example", b, len(names))
			names = append(names, name)
			if uint32(hashName(name))&z.mask != shard {
				continue // name for some other batch's shard; just skip it
			}
			batch[b] = append(batch[b], Record{
				Domain: name,
				First:  simclock.PaperStart,
				Feed:   "delta",
			})
		}
	}

	var applied atomic.Int64 // batches fully published
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: apply batches, yielding between them so readers interleave
	// even on one core.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			if err := p.Apply("dbl.test", batch[b]); err != nil {
				t.Error(err)
				return
			}
			applied.Add(1)
			runtime.Gosched()
		}
		close(stop)
	}()

	// Readers: query the full domain set through the real Respond path,
	// asserting monotonic listing per name.
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			resp := NewResponder(p)
			out := make([]byte, 0, 512)
			seen := make(map[int]bool, batches) // batch index -> seen listed
			var qid uint16
			for round := 0; ; round++ {
				select {
				case <-stop:
					if round > 0 {
						return
					}
					// Take at least one full pass after the final apply so
					// every batch's visibility is checked once.
				default:
				}
				for b := 0; b < batches; b++ {
					rec := batch[b][(round+r)%perBatch]
					qid++
					q := appendQuery(nil, qid, rec.Domain, "dbl.test", 1)
					out = resp.Respond(out[:0], q)
					if out == nil {
						t.Errorf("reader %d: query for %s dropped", r, rec.Domain)
						return
					}
					rcode := out[3] & 0x0f
					switch rcode {
					case 0:
						seen[b] = true
					case 3:
						if seen[b] {
							t.Errorf("reader %d: %s (batch %d) unlisted after being listed — torn or regressed snapshot",
								r, rec.Domain, b)
							return
						}
					default:
						t.Errorf("reader %d: %s answered rcode %d", r, rec.Domain, rcode)
						return
					}
				}
			}
		}(r)
	}

	// Snapshot inspector: a loaded snapshot must contain each
	// same-shard batch completely or not at all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for b := 0; b < batches; b++ {
				si := uint32(hashName(batch[b][0].Domain)) & z.mask
				snap := z.shards[si].load()
				present := 0
				for _, rec := range batch[b] {
					if _, ok := snap.get(hashName(rec.Domain), []byte(rec.Domain)); ok {
						present++
					}
				}
				if present != 0 && present != perBatch {
					t.Errorf("batch %d partially visible: %d/%d records in one snapshot",
						b, present, perBatch)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	wg.Wait()

	// Convergence: everything applied must now be listed.
	if got := applied.Load(); got != batches {
		t.Fatalf("writer applied %d/%d batches", got, batches)
	}
	total, err := p.Listed("dbl.test")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for b := range batch {
		want += len(batch[b])
	}
	if total != want {
		t.Fatalf("listed %d domains after all deltas, want %d", total, want)
	}
	for si, sh := range z.shards {
		if nb := len(sh.load().buckets); nb < 2 {
			t.Fatalf("shard %d ended with %d bucket(s); the run never raced a fan-out doubling", si, nb)
		}
	}
	for b := range batch {
		for _, rec := range batch[b] {
			listed, first, feed, err := p.Lookup("dbl.test", rec.Domain)
			if err != nil || !listed {
				t.Fatalf("%s missing after reload storm (err %v)", rec.Domain, err)
			}
			if !first.Equal(simclock.PaperStart) || feed != "delta" {
				t.Fatalf("%s: first=%v feed=%q after reload storm", rec.Domain, first, feed)
			}
		}
	}
}

// TestConcurrentApplySameDomain: two writers racing on the same domain
// with different first-seen times must converge to the earliest, never
// lose the listing, and never tear (run under -race).
func TestConcurrentApplySameDomain(t *testing.T) {
	p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	early := simclock.PaperStart
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				recs := []Record{{
					Domain: "contested.example",
					First:  early.Add(time.Duration((w*50+i)%7) * time.Hour),
					Feed:   "dbl",
				}}
				if err := p.Apply("dbl.test", recs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	listed, first, _, err := p.Lookup("dbl.test", "contested.example")
	if err != nil || !listed {
		t.Fatalf("contested.example lost (err %v)", err)
	}
	if !first.Equal(early) {
		t.Fatalf("first = %v, want earliest %v", first, early)
	}
}
