package mailflow

import (
	"fmt"
	"slices"
	"testing"

	"tasterschoice/internal/symtab"
)

// obsRec is one replayed observation with its feed.
type obsRec struct {
	feed uint8
	o    feedObs
}

// synthPlan writes item i's synthetic plan through add and batch. Most
// items are small and change feed after four observations, so several
// plans and runs share a block. At offset 5 of every chunk a plan spans
// several obs blocks, in feed segments longer than a block; at offsets
// 6 and 7 a batch overflows or exactly fills a times block.
func synthPlan(i int, add func(uint8, feedObs), batch func(n int) []int64) {
	nobs, seg, ntimes := i%7, 4, i%13
	switch i % planChunkSize {
	case 5:
		nobs, seg = 3*obsBlock+17, obsBlock+1000
	case 6:
		ntimes = timesBlock + 9
	case 7:
		ntimes = timesBlock
	}
	for j := 0; j < nobs; j++ {
		feed := uint8((i + j/seg) % len(FeedNames))
		add(feed, feedObs{t: int64(i)<<32 | int64(j), d: symtab.ID(i), url: symtab.ID(j)})
	}
	if ntimes > 0 {
		times := batch(ntimes)
		for k := range times {
			times[k] = int64(i)<<32 | int64(k)
		}
	}
}

// TestPlanChunksMatchPlainSlices drives planChunks past its block
// sizes over two chunks, the second reusing the first one's blocks,
// and checks that the replayed observations and batch times equal the
// same plans written to plain slices, at every worker count.
func TestPlanChunksMatchPlainSlices(t *testing.T) {
	n := planChunkSize + 200
	var wantObs []obsRec
	var wantTimes [][]int64
	for i := 0; i < n; i++ {
		synthPlan(i, func(feed uint8, o feedObs) {
			wantObs = append(wantObs, obsRec{feed, o})
		}, func(n int) []int64 {
			wantTimes = append(wantTimes, make([]int64, n))
			return wantTimes[len(wantTimes)-1]
		})
	}

	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var gotObs []obsRec
			var gotTimes [][]int64
			// starts holds where chunk 0's runs and batches began, to
			// show that chunk 1 writes into the same blocks.
			starts := map[any]bool{}
			chunk, reused := 0, 0
			planChunks(workers, n, func(a *planArena, i int) {
				synthPlan(i, a.add, func(n int) []int64 {
					times := a.times(n)
					a.batch(wmBatch{times: times})
					return times
				})
			}, func(plans []campaignPlan) {
				for _, p := range plans {
					for _, r := range p.runs {
						// A run lies in one block: a plan grows by
						// taking blocks, never by copying.
						if len(r.obs) == 0 || len(r.obs) > obsBlock {
							t.Fatalf("run of %d observations; want 1 to %d", len(r.obs), obsBlock)
						}
						for _, o := range r.obs {
							gotObs = append(gotObs, obsRec{r.feed, o})
						}
						if chunk == 0 {
							starts[&r.obs[0]] = true
						} else if starts[&r.obs[0]] {
							reused++
						}
					}
					for _, b := range p.batches {
						gotTimes = append(gotTimes, slices.Clone(b.times))
						if chunk == 0 {
							starts[&b.times[0]] = true
						} else if starts[&b.times[0]] {
							reused++
						}
					}
				}
				chunk++
			})
			if chunk != 2 {
				t.Fatalf("%d chunks, want 2", chunk)
			}
			if reused == 0 {
				t.Error("the second chunk wrote into none of the first chunk's blocks")
			}
			if !slices.Equal(gotObs, wantObs) {
				t.Errorf("replayed %d observations, differing from the %d written", len(gotObs), len(wantObs))
			}
			if !slices.EqualFunc(gotTimes, wantTimes, slices.Equal[[]int64]) {
				t.Errorf("replayed %d batches, differing from the %d written", len(gotTimes), len(wantTimes))
			}
		})
	}
}
