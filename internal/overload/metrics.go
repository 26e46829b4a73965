package overload

import "tasterschoice/internal/obs"

// ShedReason says why work was refused, as a metric label and so
// protocols can pick their reply (a rate or fairness shed is the
// client's fault — REFUSED/tempfail — while a capacity shed is the
// server's — SERVFAIL/try-later).
type ShedReason int

const (
	// ShedCapacity: the concurrency limit or queue bound was hit.
	ShedCapacity ShedReason = iota
	// ShedRate: a priority-class token bucket ran dry.
	ShedRate
	// ShedFairness: the client's fairness bucket ran dry.
	ShedFairness
	numShedReasons
)

// String implements fmt.Stringer (used as a metric label).
func (r ShedReason) String() string {
	switch r {
	case ShedCapacity:
		return "capacity"
	case ShedRate:
		return "rate"
	case ShedFairness:
		return "fairness"
	default:
		return "unknown"
	}
}

// GateMetrics observes an admission Gate: accept/shed counters per
// priority class (sheds further split by reason) and an in-flight
// gauge. The zero value is inert — obs instruments are nil-safe — so
// an unwired gate costs nothing.
type GateMetrics struct {
	// Admitted counts admissions per priority class.
	Admitted [NumPriorities]*obs.Counter
	// Shed counts refusals per priority class and reason.
	Shed [NumPriorities][numShedReasons]*obs.Counter
	// InFlight gauges admissions currently held.
	InFlight *obs.Gauge
}

// NewGateMetrics wires a GateMetrics to r, prefixing every series with
// name (e.g. "dnsbl_server"). Safe with a nil registry.
func NewGateMetrics(r *obs.Registry, name string) GateMetrics {
	var m GateMetrics
	for p := Priority(0); p < NumPriorities; p++ {
		m.Admitted[p] = r.Counter(name+"_admitted_total", "priority", p.String())
		for reason := ShedReason(0); reason < numShedReasons; reason++ {
			m.Shed[p][reason] = r.Counter(name+"_shed_total",
				"priority", p.String(), "reason", reason.String())
		}
	}
	m.InFlight = r.Gauge(name + "_inflight")
	r.Describe(name+"_admitted_total", "Requests admitted, by priority class.")
	r.Describe(name+"_shed_total", "Requests shed, by priority class and reason.")
	r.Describe(name+"_inflight", "Admissions currently in flight.")
	return m
}

// admitted records one admission at priority p.
func (m GateMetrics) admitted(p Priority) {
	if p < 0 || p >= NumPriorities {
		p = Bulk
	}
	m.Admitted[p].Inc()
}

// shed records one refusal at priority p for the given reason.
func (m GateMetrics) shed(p Priority, reason ShedReason) {
	if p < 0 || p >= NumPriorities {
		p = Bulk
	}
	if reason < 0 || reason >= numShedReasons {
		reason = ShedCapacity
	}
	m.Shed[p][reason].Inc()
}
