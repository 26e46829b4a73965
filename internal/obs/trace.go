package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one completed span in a tracer's ring buffer.
type SpanRecord struct {
	Name  string
	Start time.Time
	End   time.Time
}

// Duration returns End − Start.
func (s SpanRecord) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer records named spans into a fixed-size ring buffer: cheap
// enough to leave on, bounded enough to never grow. The clock is
// pluggable — daemons use the wall clock, simulations pass a function
// derived from internal/simclock (e.g. the event cursor of the window
// being replayed) so spans line up with simulated time.
//
// A nil *Tracer is fully inert: Start returns an inert Span and End on
// it is a no-op, with zero allocations on either path.
type Tracer struct {
	now func() time.Time

	mu      sync.Mutex
	ring    []SpanRecord
	next    int    // ring write cursor
	n       int    // live records (≤ cap)
	total   uint64 // spans ever recorded
	dropped uint64 // spans overwritten
}

// NewTracer returns a tracer keeping the most recent capacity spans
// (default 1024 when capacity <= 0). now substitutes the clock; nil
// means time.Now. Every goroutine that starts or ends a span calls
// now, so it must be safe for concurrent use.
func NewTracer(capacity int, now func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	if now == nil {
		now = time.Now //lint:allow wallclock -- documented default for daemons; simulations inject a simclock-derived func
	}
	return &Tracer{now: now, ring: make([]SpanRecord, capacity)}
}

// Span is an in-flight span handle. It is a value type: starting and
// ending a span allocates nothing.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start opens a span. Safe on a nil tracer.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: t.now()}
}

// End closes the span and records it. Safe on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.record(SpanRecord{Name: s.name, Start: s.start, End: s.t.now()})
}

// record appends to the ring, overwriting the oldest entry when full.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	t.mu.Unlock()
}

// Spans returns a copy of the buffered spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := (t.next - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Total returns how many spans have ever been recorded, and how many
// of those the ring has since overwritten.
func (t *Tracer) Total() (total, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.dropped
}

// Dump writes a text rendering of the buffered spans, oldest first,
// followed by a per-name summary (count, total and max duration)
// sorted by name.
func (t *Tracer) Dump(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "trace: disabled")
		return err
	}
	spans := t.Spans()
	total, dropped := t.Total()
	if _, err := fmt.Fprintf(w, "trace: %d spans buffered (%d recorded, %d dropped)\n",
		len(spans), total, dropped); err != nil {
		return err
	}
	type agg struct {
		n     int
		total time.Duration
		max   time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "  %s  %-30s %12s\n",
			s.Start.UTC().Format("2006-01-02T15:04:05.000"), s.Name, s.Duration()); err != nil {
			return err
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.Duration()
		if s.Duration() > a.max {
			a.max = s.Duration()
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		if _, err := fmt.Fprintf(w, "summary: %-30s n=%-6d total=%-12s max=%s\n",
			n, a.n, a.total, a.max); err != nil {
			return err
		}
	}
	return nil
}
