package analysis

import (
	"slices"

	"tasterschoice/internal/bitset"
)

// Greedy feed selection: the paper's §5 advice — "when working with
// multiple feeds, the priority should be to obtain a set that is as
// diverse as possible; additional feeds of the same type offer reduced
// added value" — turned into an algorithm. Greedy set cover over the
// feeds' domain sets yields an acquisition order and shows exactly how
// fast marginal value decays (and that the second MX honeypot buys
// almost nothing).

// SelectionStep is one round of greedy feed acquisition.
type SelectionStep struct {
	// Feed is the feed chosen this round.
	Feed string
	// Marginal is the number of new domains it contributes beyond the
	// feeds already chosen.
	Marginal int
	// Cumulative is the union size after adding it; CumulativeFrac is
	// that union over the all-feeds union.
	Cumulative     int
	CumulativeFrac float64
}

// GreedySelection repeatedly picks the feed with the largest marginal
// contribution of domains in the given class, until every feed is
// chosen. Ties break toward the canonical feed order. Gains are
// popcounts over the class view's feed bitsets (see Index);
// GreedySelectionSerial is the pinned string-set reference.
func GreedySelection(ds *Dataset, class DomainClass) []SelectionStep {
	order := ds.Result.Order
	cv := ds.Index().class(class)
	nw := len(cv.once.Words())
	covered := bitset.New(cv.once.Len())
	remaining := make([]int, len(order))
	for i := range remaining {
		remaining[i] = i
	}
	steps := make([]SelectionStep, 0, len(order))
	cumulative := 0
	for len(remaining) > 0 {
		bestIdx, bestGain := 0, -1
		for i, fi := range remaining {
			f := cv.feed[fi]
			if gain := f.AndNotCountRange(f, covered, 0, nw); gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		fi := remaining[bestIdx]
		remaining = slices.Delete(remaining, bestIdx, bestIdx+1)
		covered.OrInRange(cv.feed[fi], 0, nw)
		cumulative += bestGain
		frac := 0.0
		if cv.unionSize > 0 {
			frac = float64(cumulative) / float64(cv.unionSize)
		}
		steps = append(steps, SelectionStep{
			Feed:           order[fi],
			Marginal:       bestGain,
			Cumulative:     cumulative,
			CumulativeFrac: frac,
		})
	}
	return steps
}
