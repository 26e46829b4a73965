// Package core is the library's top-level API: a Study wraps a
// collected dataset, renders the full report (every table and figure)
// and its CSV export from one figure table, and codifies the paper's
// §5 guidance as a data-driven feed advisor. Callers that need a typed
// result call the analysis package directly.
package core

import (
	"fmt"
	"io"
	"sync"

	"tasterschoice/internal/analysis"
)

// Study is a feed-comparison study over one dataset.
type Study struct {
	DS *analysis.Dataset

	once     sync.Once
	rendered []figure
}

// NewStudy wraps a dataset.
func NewStudy(ds *analysis.Dataset) *Study { return &Study{DS: ds} }

// render runs every entry of figures once per Study; the report and
// the CSV export share its result.
func (s *Study) render() []figure {
	s.once.Do(func() {
		s.rendered = make([]figure, len(figures))
		for i, e := range figures {
			s.rendered[i] = e.render(s.DS)
		}
	})
	return s.rendered
}

// WriteReport prints every table and figure to w, in paper order.
func (s *Study) WriteReport(w io.Writer) error {
	for _, f := range s.render() {
		for _, sec := range f.sections {
			if _, err := fmt.Fprintf(w, "== %s ==\n%s\n", sec.title, sec.body); err != nil {
				return err
			}
		}
	}
	return nil
}
