package analysis

import "tasterschoice/internal/symtab"

// VolumeRow is one feed's bar in Figure 3: the share of incoming-mail
// spam volume covered by the feed's live (or tagged) domains, plus the
// share carried by the feed's Alexa/ODP domains — the stacked portion
// showing what exclusion removed.
type VolumeRow struct {
	Name string
	// LivePct is oracle volume of the feed's live domains over the
	// figure total; LiveBenignPct is the feed's Alexa/ODP volume over
	// the same total.
	LivePct       float64
	LiveBenignPct float64
	// TaggedPct / TaggedBenignPct: same for the tagged plot, where
	// the benign portion counts only Alexa/ODP domains that would
	// have been tagged (redirector abuse).
	TaggedPct       float64
	TaggedBenignPct float64
}

// VolumeCoverage computes Figure 3. The live-plot denominator is the
// oracle volume of the union of all live domains plus all feed-occurring
// Alexa/ODP domains; the tagged plot restricts the benign side to
// crawler-tagged benign domains. Volumes are integer sums over domain
// symbols, so visit order does not matter.
func VolumeCoverage(ds *Dataset) []VolumeRow {
	o := ds.Result.Oracle
	// volumes holds one feed's (or the union's) oracle volume per
	// plotted set.
	type volumes struct{ live, benign, tagged, benignTagged int64 }
	add := func(v *volumes, d symtab.ID) {
		l := ds.Labels.Get(d)
		if l == nil {
			return
		}
		c := o.VolumeID(d)
		if l.Live() {
			v.live += c
		}
		if l.TaggedClean() {
			v.tagged += c
		}
		if l.Benignish() {
			v.benign += c
			if l.Tagged {
				v.benignTagged += c
			}
		}
	}
	// The union of feed domains is the labeled set; live and benign
	// (tagged and benign-tagged) are disjoint, so the denominators are
	// plain sums over it.
	var all volumes
	for _, d := range ds.Labels.syms {
		add(&all, d)
	}
	liveTotal := float64(all.live + all.benign)
	taggedTotal := float64(all.tagged + all.benignTagged)

	order := ds.Result.Order
	out := make([]VolumeRow, len(order))
	for i, name := range order {
		var v volumes
		ds.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) { add(&v, d) })
		row := VolumeRow{Name: name}
		if liveTotal > 0 {
			row.LivePct = float64(v.live) / liveTotal
			row.LiveBenignPct = float64(v.benign) / liveTotal
		}
		if taggedTotal > 0 {
			row.TaggedPct = float64(v.tagged) / taggedTotal
			row.TaggedBenignPct = float64(v.benignTagged) / taggedTotal
		}
		out[i] = row
	}
	return out
}
