package analysis

import (
	"time"

	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// TimingRow is one feed's boxplot in Figures 9-12.
type TimingRow struct {
	Name string
	// Summary is over the per-domain time differences, in hours.
	Summary stats.Summary
}

// Fig9Feeds are the feeds compared in Figure 9 (all except Bot, whose
// domains barely intersect the others').
func Fig9Feeds(ds *Dataset) []string {
	var out []string
	for _, name := range ds.Result.Order {
		if name != "Bot" {
			out = append(out, name)
		}
	}
	return out
}

// HoneypotFeeds are the five honeypot-style feeds (MX honeypots and
// honey accounts) used as the baseline in Figures 10-12 — the feeds
// whose last-appearance actually tracks when a spammer stopped sending.
var HoneypotFeeds = []string{"mx1", "mx2", "mx3", "Ac1", "Ac2"}

// OnsetFeeds are the feeds the headline onset metrics compare first
// appearance over: a subset with large common support, since the
// intersection of all nine Figure 9 feeds can be tiny in reduced
// scenarios.
var OnsetFeeds = []string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"}

// timingDomains returns the tagged domains present in every one of the
// given feeds ("the intersection of the feeds"), in unspecified order:
// each timing figure summarizes the sorted deltas.
func timingDomains(ds *Dataset, feedNames []string) []symtab.ID {
	if len(feedNames) == 0 {
		return nil
	}
	var out []symtab.ID
	ds.Feed(feedNames[0]).EachIDUnordered(func(d symtab.ID, _ int64) {
		if !ClassTagged.member(ds.Labels.Get(d)) {
			return
		}
		for _, name := range feedNames[1:] {
			if !ds.Feed(name).HasID(d) {
				return
			}
		}
		out = append(out, d)
	})
	return out
}

// FirstAppearance computes Figures 9 and 10: for each feed, the
// distribution of (first appearance in that feed − campaign start),
// where campaign start is the earliest appearance across all baseline
// feeds and domains are the tagged domains in the baseline feeds'
// intersection.
func FirstAppearance(ds *Dataset, feedNames []string) []TimingRow {
	domains := timingDomains(ds, feedNames)
	rows := make([]TimingRow, len(feedNames))
	parallel.ForEach(0, len(feedNames), func(i int) {
		name := feedNames[i]
		var deltas []time.Duration
		for _, d := range domains {
			start, ok := campaignStart(ds, feedNames, d)
			if !ok {
				continue
			}
			s, ok := ds.Feed(name).StatID(d)
			if !ok {
				continue
			}
			deltas = append(deltas, s.First.Sub(start))
		}
		rows[i] = TimingRow{Name: name, Summary: stats.SummarizeDurations(deltas)}
	})
	return rows
}

// LastAppearance computes Figure 11: (campaign end − last appearance in
// the feed) over the honeypot feeds' shared tagged domains, where
// campaign end is the latest appearance across those same feeds.
func LastAppearance(ds *Dataset, feedNames []string) []TimingRow {
	domains := timingDomains(ds, feedNames)
	rows := make([]TimingRow, len(feedNames))
	parallel.ForEach(0, len(feedNames), func(i int) {
		name := feedNames[i]
		var deltas []time.Duration
		for _, d := range domains {
			end, ok := campaignEnd(ds, feedNames, d)
			if !ok {
				continue
			}
			s, ok := ds.Feed(name).StatID(d)
			if !ok {
				continue
			}
			deltas = append(deltas, end.Sub(s.Last))
		}
		rows[i] = TimingRow{Name: name, Summary: stats.SummarizeDurations(deltas)}
	})
	return rows
}

// Duration computes Figure 12: (campaign duration − domain lifetime in
// the feed), where campaign duration spans the earliest first to the
// latest last appearance across the baseline feeds. The campaign
// duration is at least as long as any single feed's lifetime, so the
// differences are non-negative.
func Duration(ds *Dataset, feedNames []string) []TimingRow {
	domains := timingDomains(ds, feedNames)
	rows := make([]TimingRow, len(feedNames))
	parallel.ForEach(0, len(feedNames), func(i int) {
		name := feedNames[i]
		var deltas []time.Duration
		for _, d := range domains {
			start, ok1 := campaignStart(ds, feedNames, d)
			end, ok2 := campaignEnd(ds, feedNames, d)
			if !ok1 || !ok2 {
				continue
			}
			s, ok := ds.Feed(name).StatID(d)
			if !ok {
				continue
			}
			campaign := end.Sub(start)
			lifetime := s.Last.Sub(s.First)
			deltas = append(deltas, campaign-lifetime)
		}
		rows[i] = TimingRow{Name: name, Summary: stats.SummarizeDurations(deltas)}
	})
	return rows
}

// campaignStart is the earliest appearance of d across the given feeds.
func campaignStart(ds *Dataset, feedNames []string, d symtab.ID) (time.Time, bool) {
	var start time.Time
	found := false
	for _, name := range feedNames {
		if s, ok := ds.Feed(name).StatID(d); ok {
			if !found || s.First.Before(start) {
				start = s.First
				found = true
			}
		}
	}
	return start, found
}

// campaignEnd is the latest appearance of d across the given feeds.
func campaignEnd(ds *Dataset, feedNames []string, d symtab.ID) (time.Time, bool) {
	var end time.Time
	found := false
	for _, name := range feedNames {
		if s, ok := ds.Feed(name).StatID(d); ok {
			if !found || s.Last.After(end) {
				end = s.Last
				found = true
			}
		}
	}
	return end, found
}
