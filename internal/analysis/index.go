package analysis

import (
	"math/bits"
	"sync"

	"tasterschoice/internal/bitset"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/symtab"
)

// Index is the dataset's interned-domain view: every labeled domain
// (every domain occurring in any feed) is numbered by its row in
// Labels, so id i is the domain Labels.syms[i] and its label is
// Labels.rows[i]. Each feed's membership becomes a bitset over those
// ids. The paper's coverage and intersection tables — recomputed in
// full for every class, as list-comparison studies must be — then
// reduce to word-wise AND/popcount passes that shard across workers.
// No reader depends on the numbering's order — the tables count, and
// ReconstructCampaigns sorts what it reads — and label rows are in
// deterministic feed-then-insertion order, so ids are stable across
// runs.
//
// The index is built lazily on first use and cached; it assumes the
// Dataset is immutable from that point on, which holds for every
// dataset produced by simulate/NewDataset.
type Index struct {
	ds *Dataset
	// feedIDs[name] holds the feed's member ids, ascending.
	feedIDs map[string][]int32
	// feedBits[name] is the feed's membership bitset (class-unfiltered).
	feedBits map[string]*bitset.Set

	classOnce [3]sync.Once
	classes   [3]*classView
}

// classView caches the per-class structures shared by Coverage,
// Intersections, GreedySelection and ReconstructCampaigns: each feed's
// class-filtered bitset plus the once/multi accumulators over the feed
// order.
type classView struct {
	bits *bitset.Set // ids in the class
	// feed[i] = feedBits[order[i]] ∩ bits, indexed like Result.Order.
	feed []*bitset.Set
	// once: ids in ≥1 feed (the class union); multi: ids in ≥2 feeds.
	once, multi *bitset.Set
	unionSize   int
}

// Index returns the dataset's interned-domain index, building it on
// first use with one worker per CPU.
func (ds *Dataset) Index() *Index {
	ds.idxOnce.Do(func() {
		ds.idx = buildIndex(ds, 0)
	})
	return ds.idx
}

// buildIndex maps each feed's rows onto label-row ids, all by symbol
// ID: a feed domain's id is its Labels row (BuildLabels labels the
// union of feed domains exhaustively), so numbering needs no sort and
// no lookup table.
func buildIndex(ds *Dataset, workers int) *Index {
	order := ds.Result.Order
	ix := &Index{
		ds:       ds,
		feedIDs:  make(map[string][]int32, len(order)),
		feedBits: make(map[string]*bitset.Set, len(order)),
	}
	n, pos := ds.Labels.Len(), ds.Labels.pos

	// Per-feed bitsets, one feed per worker; each feed's ascending id
	// list is read back off its bitset.
	ids := make([][]int32, len(order))
	bitsets := make([]*bitset.Set, len(order))
	parallel.ForEach(workers, len(order), func(i int) {
		f := ds.Feed(order[i])
		b := bitset.New(n)
		f.EachIDUnordered(func(d symtab.ID, _ int64) {
			b.Set(int(pos[d] - 1))
		})
		ids[i] = appendIDs(make([]int32, 0, f.Unique()), b)
		bitsets[i] = b
	})
	for i, name := range order {
		ix.feedIDs[name] = ids[i]
		ix.feedBits[name] = bitsets[i]
	}
	return ix
}

// appendIDs appends the ids set in b to dst, ascending.
func appendIDs(dst []int32, b *bitset.Set) []int32 {
	for w, word := range b.Words() {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Label returns the label for id.
func (ix *Index) Label(id int32) *Label { return &ix.ds.Labels.rows[id] }

// FeedIDs returns the feed's member ids in ascending order.
func (ix *Index) FeedIDs(name string) []int32 { return ix.feedIDs[name] }

// class returns the cached per-class view, building it on first use.
func (ix *Index) class(c DomainClass) *classView {
	ix.classOnce[c].Do(func() {
		ix.classes[c] = ix.buildClass(c, 0)
	})
	return ix.classes[c]
}

func (ix *Index) buildClass(c DomainClass, workers int) *classView {
	rows := ix.ds.Labels.rows
	n := len(rows)
	cv := &classView{bits: bitset.New(n)}
	// Membership bits: each worker owns a contiguous range of whole
	// words, so no two workers write the same word.
	parallel.Ranges(workers, len(cv.bits.Words()), func(lo, hi int) {
		for i := lo * 64; i < min(hi*64, n); i++ {
			if c.member(&rows[i]) {
				cv.bits.Set(i)
			}
		}
	})
	order := ix.ds.Result.Order
	cv.feed = make([]*bitset.Set, len(order))
	parallel.ForEach(workers, len(order), func(i int) {
		fb := ix.feedBits[order[i]]
		fc := bitset.New(n)
		words, cw, fw := fc.Words(), cv.bits.Words(), fb.Words()
		for w := range words {
			words[w] = cw[w] & fw[w]
		}
		cv.feed[i] = fc
	})
	// once/multi accumulation: word-sharded; within each range the
	// feeds fold in canonical order, so the result is independent of
	// the worker count.
	cv.once, cv.multi = bitset.New(n), bitset.New(n)
	nw := len(cv.once.Words())
	parallel.Ranges(workers, nw, func(lo, hi int) {
		for _, f := range cv.feed {
			bitset.AccumulateOnceMulti(cv.once, cv.multi, f, lo, hi)
		}
	})
	cv.unionSize = cv.once.Count()
	return cv
}
