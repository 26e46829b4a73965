package analysis

import (
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// CategoryRow is one feed's tagged-domain composition across the three
// tagged goods categories (pharmaceuticals, replicas, software) — the
// classes the paper's §3.4 storefront tagging covers. An extension
// view: the paper discusses the categories but does not tabulate the
// per-feed split.
type CategoryRow struct {
	Name     string
	Pharma   int
	Replica  int
	Software int
}

// Total returns the row's tagged-domain count.
func (r CategoryRow) Total() int { return r.Pharma + r.Replica + r.Software }

// CategoryBreakdown counts each feed's tagged domains per goods
// category.
func CategoryBreakdown(ds *Dataset) []CategoryRow {
	out := make([]CategoryRow, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		row := CategoryRow{Name: name}
		ds.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
			l := ds.Labels.Get(d)
			if l == nil || !l.TaggedClean() {
				return
			}
			switch l.Category {
			case ecosystem.CategoryPharma:
				row.Pharma++
			case ecosystem.CategoryReplica:
				row.Replica++
			case ecosystem.CategorySoftware:
				row.Software++
			}
		})
		out = append(out, row)
	}
	return out
}

// ShareRow is one feed's implied market-share estimate: the fraction of
// its observed volume attributable to each goods category. The paper's
// §5 warns that extrapolating "X% of all spam advertises Y" from a
// single feed is risky precisely because these shares vary so much by
// collection methodology; this view quantifies the spread.
type ShareRow struct {
	Name string
	// PharmaShare/ReplicaShare/SoftwareShare are volume fractions of
	// the feed's tagged volume.
	PharmaShare   float64
	ReplicaShare  float64
	SoftwareShare float64
}

// CategoryShares computes per-feed category volume shares for the
// volume feeds, plus the oracle's ground truth as the "Mail" row.
func CategoryShares(ds *Dataset) []ShareRow {
	// volumes accumulates one row's per-category volume over tagged
	// domains; the sums are integers, so visit order does not matter.
	type volumes struct{ pharma, replica, software, total int64 }
	add := func(v *volumes, d symtab.ID, c int64) {
		l := ds.Labels.Get(d)
		if l == nil || !l.TaggedClean() {
			return
		}
		v.total += c
		switch l.Category {
		case ecosystem.CategoryPharma:
			v.pharma += c
		case ecosystem.CategoryReplica:
			v.replica += c
		case ecosystem.CategorySoftware:
			v.software += c
		}
	}
	rowFrom := func(name string, v volumes) ShareRow {
		row := ShareRow{Name: name}
		if v.total > 0 {
			row.PharmaShare = float64(v.pharma) / float64(v.total)
			row.ReplicaShare = float64(v.replica) / float64(v.total)
			row.SoftwareShare = float64(v.software) / float64(v.total)
		}
		return row
	}

	// Ground truth first: oracle volumes over the tagged union, which
	// is the tagged part of the labeled (feed-domain) union.
	var mail volumes
	for _, d := range ds.Labels.syms {
		add(&mail, d, ds.Result.Oracle.VolumeID(d))
	}
	rows := []ShareRow{rowFrom(MailColumn, mail)}
	for _, name := range VolumeFeeds(ds) {
		var v volumes
		ds.Feed(name).EachIDUnordered(func(d symtab.ID, c int64) { add(&v, d, c) })
		rows = append(rows, rowFrom(name, v))
	}
	return rows
}
