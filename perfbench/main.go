// Command perfbench is the repository's benchmark. It runs one named
// workload for one seed and prints, as the last line of its standard
// output, a JSON object with the run's correctness verdict, the
// operations attempted and failed, and its metrics:
//
//	perfbench -workload tasters_cold|dnsbl_query -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans around every call into the program and reports the
// per-layer metrics instead, writing the spans to -trace-file. The
// workloads and metrics are described in README.md beside this file;
// run.py builds this command and drives it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Diag holds diagnostics that are not
// gated metrics: the host's CPU count and steal, sample counts, the
// report digest.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Diag      map[string]any    `json:"diag"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, Diag: map[string]any{}}
}

// set records a metric; its unit comes from the metric tables.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: metric " + name + " is in neither endToEnd nor perLayer")
	}
	r.Metrics[name] = metric{v, unit}
}

// fail records a failed correctness check as a diagnostic.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	msgs, _ := r.Diag["errors"].([]string)
	r.Diag["errors"] = append(msgs, fmt.Sprintf(format, args...))
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are every metric the benchmark reports, in the
// order BENCHMARK.json lists them, and the only place a unit is
// written; a test keeps BENCHMARK.json in step. An untraced run
// reports all of endToEnd, a traced one all of perLayer, with 0 for a
// layer the workload never calls.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"latency_p50_ms", "ms"},
	{"ops_per_cpu_s", "ops/CPU-s"},
	{"freshness_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"ecosystem.generate_s", "s"},
	{"ecosystem.alloc_mb", "MiB"},
	{"mailflow.run_s", "s"},
	{"mailflow.alloc_mb", "MiB"},
	{"mailflow.poison_s", "s"},
	{"mailflow.observe_campaigns_s", "s"},
	{"mailflow.honeypot_junk_s", "s"},
	{"mailflow.observations", "count"},
	{"mailflow.campaigns_planned", "count"},
	{"symtab.symbols", "count"},
	{"analysis.dataset_s", "s"},
	{"analysis.index_s", "s"},
	{"analysis.labels", "count"},
	{"core.report_s", "s"},
	{"core.report_alloc_mb", "MiB"},
	{"core.report_bytes", "bytes"},
	{"dnsblplane.load_s", "s"},
	{"dnsblplane.respond_ns", "ns"},
	{"dnsblplane.serve_overhead_us", "us"},
	{"dnsblplane.read_batch_mean", "datagrams"},
	{"dnsblplane.neg_hit_ratio", "ratio"},
	{"dnsblplane.apply_ms", "ms"},
	{"dnsblplane.apply_alloc_mb", "MiB"},
	{"dnsblplane.reload_records", "count"},
	{"dnsblplane.shed", "count"},
	{"dnsblplane.dropped", "count"},
	{"client.timeouts", "count"},
	{"client.wrong", "count"},
	// The DNSBL round trip's p99 follows the host's CPU steal too
	// closely to gate (README.md), so it is reported, from the
	// untraced run, but carries no bound.
	{"latency_p99_ms", "ms"},
	{"writer.late_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.layer_share_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// fillLayers adds a zero for every per-layer metric the workload did
// not set, so a traced run always reports the full list.
func (r *result) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
}

func main() {
	workload := flag.String("workload", "", "tasters_cold or dnsbl_query")
	seed := flag.Uint64("seed", 2010, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured length of a DNSBL run, in seconds")
	trace := flag.Int("trace", 0, "1: trace every layer call and report per-layer metrics")
	traceFile := flag.String("trace-file", "", "with -trace 1, write the spans here as JSON")
	untracedP50 := flag.Float64("untraced-p50-ms", 0,
		"with -trace 1, the untraced run's latency_p50_ms for the same seed, to report the tracing overhead")
	untracedP99 := flag.Float64("untraced-p99-ms", 0,
		"with -trace 1, the untraced run's p99 query round trip for the same seed, reported as latency_p99_ms")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}

	tr := newTracer(*trace == 1)
	res := newResult()
	var err error
	switch *workload {
	case "tasters_cold":
		err = runTasters(res, tr, tastersConfig(*seed))
	case "dnsbl_query":
		err = runDNSBL(res, tr, queryConfig(*seed, *seconds))
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if tr.on {
		if *untracedP50 > 0 {
			p50 := res.Diag["latency_p50_ms"].(float64)
			res.set("trace.overhead_pct", 100*(p50-*untracedP50) / *untracedP50)
		}
		if *untracedP99 > 0 {
			res.set("latency_p99_ms", *untracedP99)
		}
		res.fillLayers()
		if *traceFile != "" {
			if err := writeSpans(*traceFile, tr.spans()); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	res.Diag["workload"] = *workload
	res.Diag["seed"] = *seed
	res.Diag["nproc"] = runtime.NumCPU()
	res.Diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.Diag["go_version"] = runtime.Version()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// writeSpans writes the spans as one JSON array, with each span's self
// time (its duration minus what its children cover).
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
