// Package oracle implements the paper's "incoming mail oracle": a large
// webmail provider counts, over a five-day window, how many incoming
// messages contain each domain of interest.
//
// The oracle sees pre-filter incoming mail, so its per-domain volumes
// reflect what is actually sent — including the enormous legitimate
// volume carried by benign (Alexa/ODP) domains, which is why those
// domains dominate feed volume before they are excluded (paper Fig. 3).
//
// Counts are stored densely by interned symbol ID (internal/symtab):
// callers record and read through the IDs of the world's shared table,
// so the per-message path allocates nothing and the oracle holds no
// names of its own.
package oracle

import (
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Oracle accumulates per-domain incoming-mail counts over its window.
type Oracle struct {
	// Window is the five-day measurement slice.
	Window simclock.Window

	// counts is indexed by symbol ID; zero entries are unobserved.
	counts []int64
	unique int
	total  int64
}

// New creates an oracle counting over the given window.
func New(w simclock.Window) *Oracle {
	return &Oracle{Window: w}
}

// PaperOracleWindow returns a five-day window in the middle of the
// measurement period, mirroring the paper's five-day oracle slice.
func PaperOracleWindow(measurement simclock.Window) simclock.Window {
	mid := measurement.Day(measurement.Days() / 2)
	return simclock.Window{Start: mid, End: mid.AddDate(0, 0, 5)}
}

// add accumulates n observations for an interned ID.
func (o *Oracle) add(d symtab.ID, n int64) {
	if int(d) >= len(o.counts) {
		o.counts = append(o.counts, make([]int64, int(d)+1-len(o.counts))...)
	}
	if o.counts[d] == 0 {
		o.unique++
	}
	o.counts[d] += n
	o.total += n
}

// RecordID counts one incoming message for an interned domain ID at a
// packed UnixNano timestamp; messages outside the window are ignored.
func (o *Oracle) RecordID(tNanos int64, d symtab.ID) {
	if tNanos < o.Window.Start.UnixNano() || tNanos >= o.Window.End.UnixNano() {
		return
	}
	o.add(d, 1)
}

// AddBulkID adds n message observations for an interned domain ID
// without timestamps — used for the analytically generated
// legitimate-mail baseline, which is far too large to materialize
// message by message.
func (o *Oracle) AddBulkID(d symtab.ID, n int64) {
	if n <= 0 {
		return
	}
	o.add(d, n)
}

// VolumeID returns the recorded count for an interned domain ID.
func (o *Oracle) VolumeID(d symtab.ID) int64 {
	if int(d) >= len(o.counts) {
		return 0
	}
	return o.counts[d]
}

// Total returns the total recorded message-domain observations.
func (o *Oracle) Total() int64 { return o.total }

// Unique returns the number of distinct domains observed.
func (o *Oracle) Unique() int { return o.unique }
