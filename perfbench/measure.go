package main

import (
	"bufio"
	"cmp"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nearestRank returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank method, and how many samples lie strictly beyond that
// rank. The count is what makes a tail percentile trustworthy: a p99
// with fewer than ten samples beyond it is mostly noise.
func nearestRank(sorted []int64, q float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1], len(sorted) - r
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []int64) int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	v, _ := nearestRank(s, 0.5)
	return v
}

// cpuSeconds returns the user+system CPU time of the whole process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB returns the process's peak resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtStats is a reading of the Go runtime's cumulative counters.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtStats {
	var s [len(rtNames)]metrics.Sample
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return rtStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// sub returns the counters accumulated between before and r.
func (r rtStats) sub(before rtStats) rtStats {
	return rtStats{
		allocBytes: r.allocBytes - before.allocBytes,
		gcCycles:   r.gcCycles - before.gcCycles,
		gcCPU:      r.gcCPU - before.gcCPU,
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal
// column and the sum of all columns, in USER_HZ ticks.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of host CPU time stolen from this VM
// over an interval: the diagnostic that explains a slow, noisy period.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

// span is one traced interval. Every span of one op shares Op; Parent
// is the ID of the span that caused it, -1 for an op's root. Times are
// nanoseconds since the tracer was created.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory around the benchmark's calls into
// the program; they are written out once, after measuring. A tracer
// with on == false records nothing and begin returns -1.
type tracer struct {
	on   bool
	base time.Time
	mu   sync.Mutex
	sp   []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(op int64, parent int, name string) int {
	if !t.on {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.sp)
	t.sp = append(t.sp, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: start})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.sp[id].End = end
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(when time.Time) int64 { return when.Sub(t.base).Nanoseconds() }

// add records an already-finished span timed by someone else, such as
// a phase span from the engine's own obs.Tracer.
func (t *tracer) add(op int64, parent int, name string, start, end int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sp = append(t.sp, span{Op: op, ID: len(t.sp), Parent: parent, Name: name, Start: start, End: end})
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.sp)
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return time.Duration(d)
}

// selfTimes returns, indexed by span ID, each span's duration minus
// the part of it that its children cover. Children may overlap (work
// on several goroutines), so their intervals are merged first and
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerShare is the share (percent) of root-op time that the ops'
// child spans account for, over every op that has children. A share
// well under 100 means time the layer spans do not explain.
func layerShare(spans []span) float64 {
	self := selfTimes(spans)
	hasKids := make(map[int]bool)
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		}
	}
	var op, unexplained int64
	for _, s := range spans {
		if s.Parent < 0 && hasKids[s.ID] {
			op += s.dur()
			unexplained += self[s.ID]
		}
	}
	if op == 0 {
		return 0
	}
	return 100 * float64(op-unexplained) / float64(op)
}
