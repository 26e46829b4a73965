package dnsbl

import (
	"tasterschoice/internal/obs"
	"tasterschoice/internal/resilient"
)

// ClientMetrics observes a DNSBL client. The zero value is inert;
// populate with NewClientMetrics to collect. All observation happens
// after protocol decisions are made, so instrumented lookups behave
// byte-identically to uninstrumented ones.
type ClientMetrics struct {
	// Queries counts completed lookups (success or failure).
	Queries *obs.Counter
	// Timeouts counts attempts that died waiting on the network — the
	// UDP-drop/slow-server case the retry budget exists for.
	Timeouts *obs.Counter
	// Errors counts lookups that failed after exhausting retries.
	Errors *obs.Counter
	// QuerySeconds is the end-to-end lookup latency, retries included.
	// Only measured when non-nil (it costs two time.Now calls).
	QuerySeconds *obs.Histogram
	// Retry observes the per-attempt retry machinery.
	Retry resilient.RetryMetrics
}

// NewClientMetrics wires a ClientMetrics to r. Safe with a nil
// registry (returns the inert zero value).
func NewClientMetrics(r *obs.Registry) ClientMetrics {
	m := ClientMetrics{
		Queries:      r.Counter("dnsbl_client_queries_total"),
		Timeouts:     r.Counter("dnsbl_client_timeouts_total"),
		Errors:       r.Counter("dnsbl_client_errors_total"),
		QuerySeconds: r.Histogram("dnsbl_client_query_seconds", obs.DefSecondsBuckets),
		Retry:        resilient.NewRetryMetrics(r, "dnsbl_client"),
	}
	r.Describe("dnsbl_client_queries_total", "Completed DNSBL lookups, including failures.")
	r.Describe("dnsbl_client_timeouts_total", "Attempts that timed out on the network.")
	r.Describe("dnsbl_client_errors_total", "Lookups that failed after all retries.")
	r.Describe("dnsbl_client_query_seconds", "End-to-end lookup latency, retries included.")
	return m
}
