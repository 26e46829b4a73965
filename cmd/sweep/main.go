// Command sweep quantifies the reproduction's stability: it runs the
// scenario across many seeds and reports mean and spread for each
// headline metric, so "the shape holds" is a measured claim rather
// than a single lucky seed (EXPERIMENTS.md cites this).
//
// With -checkpoint the sweep is resumable: each finished seed's
// metrics are saved through the crash-safe checkpoint store, and a
// restarted sweep re-runs only the seeds that are missing — the final
// table is identical to an uninterrupted run. With -retry-failed N,
// transiently failed seeds are re-run up to N extra times (with
// backoff) before being reported in the "failed seeds: N" non-zero
// exit. -workers bounds how many seeds run at once; the table does
// not depend on it.
//
// The sweep core (checkpoint, resume, retry, metric extraction and
// the table renderer) lives in internal/sweep.
//
// Usage:
//
//	sweep [-seeds N] [-small] [-workers K] [-checkpoint PATH] [-retry-failed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"tasterschoice/internal/checkpoint"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/sweep"
)

// validate rejects flag values the sweep would otherwise only trip
// over mid-run: a negative retry budget, and a checkpoint destination
// that cannot be written — better refused now than discovered when the
// first finished seed tries to persist.
func validate(retryFailed int, ckpt string) error {
	if retryFailed < 0 {
		return fmt.Errorf("-retry-failed must be >= 0, got %d", retryFailed)
	}
	if ckpt == "" {
		return nil
	}
	if fi, err := os.Stat(ckpt); err == nil && fi.IsDir() {
		return fmt.Errorf("-checkpoint %s is a directory, want a file path", ckpt)
	}
	// The store MkdirAlls the parent on save; do it now so a bad path
	// fails before any seeds are spent, then prove the directory is
	// writable with a probe file.
	dir := filepath.Dir(ckpt)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-checkpoint: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".sweep-probe-*")
	if err != nil {
		return fmt.Errorf("-checkpoint: directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name()) //nolint:errcheck
	return nil
}

func main() {
	seeds := flag.Int("seeds", 10, "number of seeds to run")
	small := flag.Bool("small", true, "use the reduced scenario (default; full scale is slower)")
	workers := flag.Int("workers", 4, "concurrent scenario runs")
	ckpt := flag.String("checkpoint", "", "checkpoint file: finished seeds persist and a rerun resumes")
	retryFailed := flag.Int("retry-failed", 0, "re-run a transiently failed seed up to N extra times before counting it failed")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this HTTP address while the sweep runs (empty: disabled)")
	flag.Parse()
	if err := validate(*retryFailed, *ckpt); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Seeds run concurrently, so spans from different simulated windows
	// would interleave on a simclock-anchored timeline; the wall clock
	// keeps the sweep's trace readable.
	var m mailflow.Metrics
	var tracer *obs.Tracer
	var storeMetrics checkpoint.Metrics
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		m = mailflow.NewMetrics(reg)
		storeMetrics = checkpoint.NewMetrics(reg, "sweep")
		tracer = obs.NewTracer(4096, nil)
		ms, err := obs.Serve(*metricsAddr, reg, tracer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}

	cfg := sweep.Config{
		Seeds:          *seeds,
		Small:          *small,
		Workers:        *workers,
		CheckpointPath: *ckpt,
		RetryFailed:    *retryFailed,
		Errw:           os.Stderr,
		StoreMetrics:   storeMetrics,
	}
	failed, err := sweep.RunLocal(ctx, cfg, sweep.ScenarioRunner(*small, m, tracer), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "failed seeds: %d\n", failed)
		os.Exit(1)
	}
}
