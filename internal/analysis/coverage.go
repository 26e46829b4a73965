package analysis

import (
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// DomainClass selects which domain definition an analysis runs over.
type DomainClass uint8

const (
	// ClassAll is every distinct domain, junk included.
	ClassAll DomainClass = iota
	// ClassLive is the paper's live domains (HTTP 200, minus
	// Alexa/ODP).
	ClassLive
	// ClassTagged is the paper's tagged domains (storefront match,
	// minus Alexa/ODP).
	ClassTagged
)

// String returns the class name.
func (c DomainClass) String() string {
	switch c {
	case ClassLive:
		return "live"
	case ClassTagged:
		return "tagged"
	default:
		return "all"
	}
}

// member reports whether a labeled domain belongs to the class.
func (c DomainClass) member(l *Label) bool {
	if l == nil {
		return c == ClassAll
	}
	switch c {
	case ClassLive:
		return l.Live()
	case ClassTagged:
		return l.TaggedClean()
	default:
		return true
	}
}

// FeedDomains returns the feed's domains restricted to the class, as a
// set of plain strings.
func FeedDomains(ds *Dataset, name string, class DomainClass) map[string]bool {
	out := make(map[string]bool)
	ds.Feed(name).EachIDUnordered(func(d symtab.ID, _ int64) {
		if class.member(ds.Labels.Get(d)) {
			out[ds.name(d)] = true
		}
	})
	return out
}

// CoverageRow is one feed's slice of Table 3: distinct and exclusive
// domain counts for one domain class.
type CoverageRow struct {
	Name      string
	Total     int
	Exclusive int
}

// Coverage computes Table 3 for one domain class. Exclusive counts
// domains occurring in exactly one feed.
//
// The computation runs over the dataset's interned-domain bitsets
// (see Index): Total is a popcount of the feed's class-filtered set
// and Exclusive a popcount of that set minus the ids the once/multi
// accumulators saw in two or more feeds. Rows are computed one feed
// per worker; CoverageSerial is the pinned reference implementation
// the golden test compares against.
func Coverage(ds *Dataset, class DomainClass) []CoverageRow {
	order := ds.Result.Order
	cv := ds.Index().class(class)
	nw := len(cv.multi.Words())
	out := make([]CoverageRow, len(order))
	parallel.ForEach(0, len(order), func(i int) {
		f := cv.feed[i]
		out[i] = CoverageRow{
			Name:      order[i],
			Total:     f.Count(),
			Exclusive: f.AndNotCountRange(f, cv.multi, 0, nw),
		}
	})
	return out
}

// Matrix is a pairwise feed-comparison matrix (Figures 2, 4, 5): for
// row A and column B, Count[A][B] = |set(A) ∩ set(B)| and Frac[A][B] =
// that count over |set(B)|. The extra last column "All" holds each
// row's intersection with the union of all sets.
type Matrix struct {
	// Names are the row/column feed names, in order.
	Names []string
	// Count[i][j] for j < len(Names) is |set_i ∩ set_j|; the final
	// column j == len(Names) is |set_i| vs the union.
	Count [][]int
	// Frac[i][j] = Count[i][j] / |set_j| (or /|union| for the All
	// column); 0 when the denominator is empty.
	Frac [][]float64
	// SetSizes are |set_i|; UnionSize is |union of all sets|.
	SetSizes  []int
	UnionSize int
}

// NewMatrix builds a pairwise matrix from named sets, computing one
// row per worker.
func NewMatrix(names []string, sets []map[string]bool) *Matrix {
	n := len(names)
	union := make(map[string]bool)
	for _, s := range sets {
		for d := range s {
			union[d] = true
		}
	}
	m := &Matrix{
		Names:     append([]string(nil), names...),
		Count:     make([][]int, n),
		Frac:      make([][]float64, n),
		SetSizes:  make([]int, n),
		UnionSize: len(union),
	}
	for i := range sets {
		m.SetSizes[i] = len(sets[i])
	}
	parallel.ForEach(0, n, func(i int) {
		m.Count[i] = make([]int, n+1)
		m.Frac[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			small, large := sets[i], sets[j]
			if len(small) > len(large) {
				small, large = large, small
			}
			c := 0
			for d := range small {
				if large[d] {
					c++
				}
			}
			m.Count[i][j] = c
			m.Frac[i][j] = stats.Fraction(c, len(sets[j]))
		}
		// All column: the row's share of the union.
		m.Count[i][n] = len(sets[i])
		m.Frac[i][n] = stats.Fraction(len(sets[i]), len(union))
	})
	return m
}

// Intersections computes the pairwise domain-intersection matrix
// (Figure 2) for a domain class. Pairwise counts run over the interned
// bitsets, sharded one row per worker; IntersectionsSerial is the
// pinned reference implementation.
func Intersections(ds *Dataset, class DomainClass) *Matrix {
	order := ds.Result.Order
	cv := ds.Index().class(class)
	n := len(order)
	m := &Matrix{
		Names:     append([]string(nil), order...),
		Count:     make([][]int, n),
		Frac:      make([][]float64, n),
		SetSizes:  make([]int, n),
		UnionSize: cv.unionSize,
	}
	sizes := make([]int, n)
	parallel.ForEach(0, n, func(i int) {
		sizes[i] = cv.feed[i].Count()
	})
	copy(m.SetSizes, sizes)
	parallel.ForEach(0, n, func(i int) {
		m.Count[i] = make([]int, n+1)
		m.Frac[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			c := cv.feed[i].AndCount(cv.feed[j])
			m.Count[i][j] = c
			m.Frac[i][j] = stats.Fraction(c, sizes[j])
		}
		m.Count[i][n] = sizes[i]
		m.Frac[i][n] = stats.Fraction(sizes[i], cv.unionSize)
	})
	return m
}
