package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"time"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simulate"
)

// tastersCfg sizes the tasters_cold workload.
type tastersCfg struct {
	seed uint64
	// scenario is the set-up call cmd/tasters makes before the
	// pipeline; tests substitute a tiny scenario.
	scenario func(seed uint64) simulate.Scenario
	// setupReps is how many groups of setupGroup set-up calls are
	// timed; the median time per call is reported.
	setupReps int
}

// setupGroup is how many set-up calls one timing covers: one call takes
// a few hundred nanoseconds, too little to time alone. setupGap spaces
// the groups out, so the median spans a fifth of a second of host
// load rather than the single millisecond back-to-back groups take.
const (
	setupGroup = 64
	setupGap   = 2 * time.Millisecond
)

func tastersConfig(seed uint64) tastersCfg {
	return tastersCfg{seed: seed, scenario: simulate.Default, setupReps: 101}
}

// hashSink is the report's destination: it keeps a digest and a byte
// count instead of the text.
type hashSink struct {
	h hash.Hash
	n int64
}

func (s *hashSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return s.h.Write(p)
}

// runTasters makes the calls cmd/tasters makes, in its order, as one
// cold op: generate the world, collect the feeds, label and index the
// dataset, and render the report.
func runTasters(res *result, tr *tracer, cfg tastersCfg) error {
	setup := make([]int64, cfg.setupReps)
	var scen simulate.Scenario
	for i := range setup {
		if i > 0 {
			time.Sleep(setupGap)
		}
		t0 := time.Now()
		for range setupGroup {
			scen = cfg.scenario(cfg.seed)
		}
		setup[i] = time.Since(t0).Nanoseconds() / setupGroup
	}
	var reg *obs.Registry
	if tr.on {
		reg = obs.NewRegistry()
		scen.Metrics = mailflow.NewMetrics(reg)
		scen.Tracer = obs.NewTracer(0, nil)
	}

	steal := startSteal()
	cpu0, rt0 := cpuSeconds(), readRuntime()
	start := time.Now()
	op := tr.begin(0, -1, "tasters.pipeline")
	// stage runs one call into the program under a span and, when
	// tracing, returns the bytes it allocated.
	stage := func(name string, fn func() error) (uint64, error) {
		id := tr.begin(0, op, name)
		var before rtStats
		if tr.on {
			before = readRuntime()
		}
		err := fn()
		tr.end(id)
		if !tr.on {
			return 0, err
		}
		return readRuntime().sub(before).allocBytes, err
	}

	var (
		world *ecosystem.World
		eng   *mailflow.Engine
		mres  *mailflow.Result
		ds    *analysis.Dataset
		sink  = &hashSink{h: sha256.New()}
	)
	genAlloc, err := stage("ecosystem.generate", func() (err error) {
		world, err = ecosystem.Generate(scen.Ecosystem)
		return err
	})
	if err != nil {
		return err
	}
	mailAlloc, err := stage("mailflow.run", func() (err error) {
		eng = mailflow.New(world, scen.Collection)
		eng.Metrics = scen.Metrics
		eng.Tracer = scen.Tracer
		mres, err = eng.Run()
		return err
	})
	if err != nil {
		return err
	}
	feedsAt := time.Since(start)
	if _, err := stage("analysis.dataset", func() error {
		ds = analysis.NewDataset(world, mres)
		return nil
	}); err != nil {
		return err
	}
	if _, err := stage("analysis.index", func() error {
		ds.Index()
		return nil
	}); err != nil {
		return err
	}
	reportAlloc, err := stage("core.report", func() error {
		return core.NewStudy(ds).WriteReport(sink)
	})
	if err != nil {
		return err
	}
	tr.end(op)
	wall := time.Since(start)
	cpu := cpuSeconds() - cpu0
	rt := readRuntime().sub(rt0)

	res.Attempted = 1
	if err := checkPipeline(mres, ds, sink); err != nil {
		res.Failed = 1
		res.fail("%v", err)
	}
	digest := hex.EncodeToString(sink.h.Sum(nil))
	res.Diag["report_sha256"] = digest
	res.Diag["latency_samples"] = 1
	res.Diag["latency_p50_ms"] = float64(wall) / float64(time.Millisecond)
	res.Diag["steal_pct"] = steal.pct()
	res.Diag["cpu_s"] = cpu

	if !tr.on {
		res.set("setup_s", time.Duration(median(setup)).Seconds())
		res.set("peak_rss_mb", peakRSSMiB())
		res.set("latency_p50_ms", res.Diag["latency_p50_ms"].(float64))
		res.set("ops_per_cpu_s", 1/cpu)
		res.set("freshness_p50_ms", float64(feedsAt)/float64(time.Millisecond))
		return nil
	}

	// The engine's phase spans become children of the mailflow.run span.
	spans := tr.spans()
	runID := slices.IndexFunc(spans, func(s span) bool { return s.Name == "mailflow.run" })
	for _, s := range scen.Tracer.Spans() {
		tr.add(0, runID, "mailflow."+s.Name, tr.at(s.Start), tr.at(s.End))
	}
	spans = tr.spans()
	// The layer spans must explain the op's time within 10%, or a
	// call into the program has gone untraced.
	share := layerShare(spans)
	if share < 90 {
		res.fail("layer spans cover only %.1f%% of the pipeline's time", share)
	}
	res.set("trace.layer_share_pct", share)
	res.set("ecosystem.generate_s", total(spans, "ecosystem.generate").Seconds())
	res.set("ecosystem.alloc_mb", mib(genAlloc))
	res.set("mailflow.run_s", total(spans, "mailflow.run").Seconds())
	res.set("mailflow.alloc_mb", mib(mailAlloc))
	res.set("mailflow.poison_s", total(spans, "mailflow.poison").Seconds())
	res.set("mailflow.observe_campaigns_s", total(spans, "mailflow.observeCampaigns").Seconds())
	res.set("mailflow.honeypot_junk_s", total(spans, "mailflow.honeypotJunk").Seconds())
	res.set("mailflow.observations", float64(scen.Metrics.Observations.Value()))
	res.set("mailflow.campaigns_planned", float64(scen.Metrics.CampaignsPlanned.Value()))
	res.set("symtab.symbols", float64(world.Syms.Len()))
	res.set("analysis.dataset_s", total(spans, "analysis.dataset").Seconds())
	res.set("analysis.index_s", total(spans, "analysis.index").Seconds())
	res.set("analysis.labels", float64(ds.Labels.Len()))
	res.set("core.report_s", total(spans, "core.report").Seconds())
	res.set("core.report_alloc_mb", mib(reportAlloc))
	res.set("core.report_bytes", float64(sink.n))
	res.set("runtime.gc_cycles", float64(rt.gcCycles))
	res.set("runtime.gc_cpu_s", rt.gcCPU)
	return nil
}

// checkPipeline is the reproduction's output check: all ten feeds
// collected something, every feed domain got a label, and the report
// was written.
func checkPipeline(mres *mailflow.Result, ds *analysis.Dataset, sink *hashSink) error {
	var errs []error
	if len(mres.Order) != 10 {
		errs = append(errs, fmt.Errorf("%d feeds, want 10", len(mres.Order)))
	}
	for _, name := range mres.Order {
		if f, err := mres.Lookup(name); err != nil || f.Unique() == 0 {
			errs = append(errs, fmt.Errorf("feed %s is empty", name))
		}
	}
	if ds.Labels.Len() == 0 {
		errs = append(errs, errors.New("no labeled domains"))
	}
	if sink.n == 0 {
		errs = append(errs, errors.New("empty report"))
	}
	return errors.Join(errs...)
}
