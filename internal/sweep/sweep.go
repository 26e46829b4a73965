// Package sweep runs the scenario across many seeds and reports the
// mean and spread of each headline metric, so "the shape holds" is a
// measured claim rather than one lucky seed. cmd/sweep fronts it.
//
// RunLocal runs the seeds in one process on a bounded worker pool.
// With a checkpoint path, each finished seed's metrics persist through
// the crash-safe checkpoint store and a restarted sweep runs only the
// missing seeds; the table it prints is byte-identical to an
// uninterrupted run. A transiently failed seed is retried before it
// counts as failed.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/checkpoint"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/report"
	"tasterschoice/internal/resilient"
	"tasterschoice/internal/simulate"
)

// metricNames is printed in this order.
var metricNames = []string{
	"Hu tagged coverage %",
	"uribl tagged volume %",
	"Bot DNS purity %",
	"mx2 DNS purity %",
	"Hu/mx1 sample ratio",
	"Hyb exclusive live %",
	"mx2-Mail variation distance",
	"Hu median onset (h)",
	"mx1 median onset (h)",
}

// stateVersion is the sweep checkpoint payload version.
const stateVersion = 1

// Config parameterises one sweep.
type Config struct {
	// Seeds is the number of seeds to run.
	Seeds int
	// Small selects the reduced scenario.
	Small bool
	// Workers bounds concurrent scenario runs; <= 0 runs one seed at
	// a time.
	Workers int
	// CheckpointPath, when set, makes the run resumable: finished
	// seeds persist through the crash-safe checkpoint store and a
	// restart re-runs only the missing ones.
	CheckpointPath string
	// RetryFailed re-runs a transiently failed seed up to this many
	// extra times (via resilient.Retrier, with its default backoff:
	// 50ms base, doubling, 5s cap) before it is reported in the
	// failed-seeds count. 0 disables retries.
	RetryFailed int
	// Sleep paces retries (default time.Sleep via resilient.Retrier);
	// tests substitute a recorder.
	Sleep func(time.Duration)
	// Errw receives per-seed failure and checkpoint warnings (default:
	// discarded). The metrics table never goes here.
	Errw io.Writer
	// StoreMetrics observes the checkpoint store; the zero value is
	// inert.
	StoreMetrics checkpoint.Metrics
}

func (c Config) errw() io.Writer {
	if c.Errw != nil {
		return c.Errw
	}
	return io.Discard
}

// sweepState is the checkpointed progress of a sweep: the
// parameters (so a resume against different flags starts fresh) and
// each finished seed's metrics, keyed by seed index.
type sweepState struct {
	Seeds   int                           `json:"seeds"`
	Small   bool                          `json:"small"`
	Results map[string]map[string]float64 `json:"results"`
}

// SeedRunner produces one seed's metrics; tests inject a fake.
type SeedRunner func(seedIndex int, seed uint64) (map[string]float64, error)

// ScenarioRunner runs the real simulation. The metrics aggregate over
// every seed the process runs; the tracer (which may be nil) collects
// engine-phase spans across all concurrent runs.
func ScenarioRunner(small bool, m mailflow.Metrics, tr *obs.Tracer) SeedRunner {
	return func(_ int, seed uint64) (map[string]float64, error) {
		scen := simulate.Default(seed)
		if small {
			scen = simulate.Small(seed)
		}
		scen.Metrics = m
		scen.Tracer = tr
		ds, err := scen.Run()
		if err != nil {
			return nil, err
		}
		return ExtractMetrics(ds), nil
	}
}

// SeedFor maps a seed index to its scenario seed.
func SeedFor(i int) uint64 { return uint64(1000 + i*7919) }

// RunLocal executes the sweep in-process, resuming from the
// checkpoint when one is configured and present, and writes the
// metrics table to out. It returns the number of seeds whose runs
// failed (after retries); a non-nil error means the sweep itself was
// interrupted (finished seeds are checkpointed).
func RunLocal(ctx context.Context, cfg Config, run SeedRunner, out io.Writer) (int, error) {
	errw := cfg.errw()
	state := sweepState{Seeds: cfg.Seeds, Small: cfg.Small, Results: map[string]map[string]float64{}}
	var store *checkpoint.Store
	if cfg.CheckpointPath != "" {
		store = checkpoint.NewStore(cfg.CheckpointPath)
		store.Metrics = cfg.StoreMetrics
		var prev sweepState
		_, err := store.LoadJSON(&prev)
		switch {
		case err == nil:
			if prev.Seeds == cfg.Seeds && prev.Small == cfg.Small && prev.Results != nil {
				state = prev
			}
			// Parameter mismatch: the checkpoint belongs to a different
			// sweep; start fresh (the first save overwrites it).
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// First run (or both generations corrupt and quarantined):
			// nothing to resume.
		default:
			return 0, fmt.Errorf("loading checkpoint: %w", err)
		}
	}

	var todo []int
	for i := 0; i < cfg.Seeds; i++ {
		if _, done := state.Results[strconv.Itoa(i)]; !done {
			todo = append(todo, i)
		}
	}
	retrier := resilient.Retrier{Attempts: max(cfg.RetryFailed, 0) + 1, Sleep: cfg.Sleep}
	var mu sync.Mutex // guards state, failed and errw
	failed := 0
	parallel.ForEach(max(cfg.Workers, 1), len(todo), func(k int) {
		if ctx.Err() != nil {
			return
		}
		i := todo[k]
		seed := SeedFor(i)
		var m map[string]float64
		err := retrier.Do(func(int) error {
			var rerr error
			m, rerr = run(i, seed)
			return rerr
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fmt.Fprintf(errw, "sweep: seed %d: %v\n", seed, err)
			failed++
			return
		}
		state.Results[strconv.Itoa(i)] = m
		if store != nil {
			if serr := store.SaveJSON(stateVersion, state); serr != nil {
				fmt.Fprintf(errw, "sweep: checkpoint: %v\n", serr)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return failed, err
	}

	// Seeds that were attempted but produced nothing (and were not
	// counted above because the run predates this process) stay absent
	// from Results; only this process's failures are counted.
	writeReport(out, cfg.Seeds, state.Results)
	return failed, nil
}

// writeReport renders the final metrics table.
func writeReport(out io.Writer, seeds int, results map[string]map[string]float64) {
	fmt.Fprintf(out, "headline metrics across %d seeds:\n\n", seeds)
	fmt.Fprintln(out, report.Table([]string{"Metric", "Mean", "StdDev", "Min", "Max", "N"}, tableRows(seeds, results)))
}

// tableRows folds per-seed metrics into the stats table, iterating
// seeds in index order so the output is deterministic.
func tableRows(seeds int, results map[string]map[string]float64) [][]string {
	rows := make([][]string, 0, len(metricNames))
	for _, name := range metricNames {
		var vals []float64
		for i := 0; i < seeds; i++ {
			r := results[strconv.Itoa(i)]
			if r == nil {
				continue
			}
			if v, ok := r[name]; ok && !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		mean, sd := meanStd(vals)
		lo, hi := minMax(vals)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", mean),
			fmt.Sprintf("%.2f", sd),
			fmt.Sprintf("%.2f", lo),
			fmt.Sprintf("%.2f", hi),
			fmt.Sprintf("%d", len(vals)),
		})
	}
	return rows
}

// ExtractMetrics pulls the headline numbers from one run.
func ExtractMetrics(ds *analysis.Dataset) map[string]float64 {
	out := map[string]float64{}

	// Coverage.
	tagged := analysis.Intersections(ds, analysis.ClassTagged)
	for i, name := range tagged.Names {
		if name == "Hu" && tagged.UnionSize > 0 {
			out["Hu tagged coverage %"] = 100 * float64(tagged.SetSizes[i]) / float64(tagged.UnionSize)
		}
	}
	for _, r := range analysis.Coverage(ds, analysis.ClassLive) {
		if r.Name == "Hyb" && r.Total > 0 {
			out["Hyb exclusive live %"] = 100 * float64(r.Exclusive) / float64(r.Total)
		}
	}

	// Purity.
	for _, r := range analysis.Purity(ds) {
		switch r.Name {
		case "Bot":
			out["Bot DNS purity %"] = r.DNS * 100
		case "mx2":
			out["mx2 DNS purity %"] = r.DNS * 100
		}
	}

	// Volume coverage.
	for _, r := range analysis.VolumeCoverage(ds) {
		if r.Name == "uribl" {
			out["uribl tagged volume %"] = r.TaggedPct * 100
		}
	}

	// Sample ratio.
	if mx1 := ds.Feed("mx1").Samples(); mx1 > 0 {
		out["Hu/mx1 sample ratio"] = float64(ds.Feed("Hu").Samples()) / float64(mx1)
	}

	// Proportionality.
	vd := analysis.VariationDistances(ds)
	for i, n := range vd.Names {
		if n == "mx2" {
			out["mx2-Mail variation distance"] = vd.Value[i][0]
		}
	}

	// Timing.
	for _, r := range analysis.FirstAppearance(ds, analysis.OnsetFeeds) {
		if r.Summary.N == 0 {
			continue
		}
		switch r.Name {
		case "Hu":
			out["Hu median onset (h)"] = r.Summary.Median
		case "mx1":
			out["mx1 median onset (h)"] = r.Summary.Median
		}
	}
	return out
}

func meanStd(vals []float64) (mean, sd float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if len(vals) > 1 {
		for _, v := range vals {
			sd += (v - mean) * (v - mean)
		}
		sd = math.Sqrt(sd / float64(len(vals)-1))
	}
	return mean, sd
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
