package sweep

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tasterschoice/internal/mailflow"
)

// update rewrites the golden table:
//
//	go test ./internal/sweep/ -run TestSweepGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// fakeRunner produces deterministic metrics per seed index and counts
// invocations, so tests can prove which seeds actually ran.
type fakeRunner struct {
	mu    sync.Mutex
	calls map[int]int
	fail  map[int]bool
	// onCall, when set, runs after each invocation (under the lock).
	onCall func(totalCalls int)
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{calls: map[int]int{}, fail: map[int]bool{}}
}

// fakeMetrics is the deterministic per-seed metric set every fake
// runner returns: a pure function of the seed index, like the real
// scenario is a pure function of the seed.
func fakeMetrics(i int) map[string]float64 {
	return map[string]float64{
		"Hu tagged coverage %": 50 + float64(i),
		"Bot DNS purity %":     90 + float64(i)/10,
	}
}

func (f *fakeRunner) run(i int, seed uint64) (map[string]float64, error) {
	f.mu.Lock()
	f.calls[i]++
	total := 0
	for _, n := range f.calls {
		total += n
	}
	if f.onCall != nil {
		f.onCall(total)
	}
	failing := f.fail[i]
	f.mu.Unlock()
	if failing {
		return nil, errors.New("synthetic failure")
	}
	return fakeMetrics(i), nil
}

func (f *fakeRunner) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, n := range f.calls {
		total += n
	}
	return total
}

// localTable runs an uninterrupted sweep and returns its table bytes —
// the reference a resumed run must match.
func localTable(t *testing.T, seeds int) []byte {
	t.Helper()
	var out bytes.Buffer
	failed, err := RunLocal(context.Background(),
		Config{Seeds: seeds, Small: true, Workers: 1}, newFakeRunner().run, &out)
	if err != nil || failed != 0 {
		t.Fatalf("reference run: failed=%d err=%v", failed, err)
	}
	return out.Bytes()
}

// TestSweepResumeByteIdentical interrupts a checkpointed sweep partway,
// resumes it, and verifies (a) the resumed run only executes the
// missing seeds and (b) its output table is byte-identical to an
// uninterrupted run.
func TestSweepResumeByteIdentical(t *testing.T) {
	const seeds = 8
	baseline := localTable(t, seeds)

	// Interrupted run: cancel after 3 seeds complete. Workers=1 keeps
	// the cut deterministic.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := newFakeRunner()
	interrupted.onCall = func(total int) {
		if total >= 3 {
			cancel()
		}
	}
	var out1 bytes.Buffer
	_, err := RunLocal(ctx, Config{Seeds: seeds, Small: true, Workers: 1, CheckpointPath: path},
		interrupted.run, &out1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	ran := interrupted.total()
	if ran >= seeds {
		t.Fatalf("interruption did not land: all %d seeds ran", ran)
	}

	// Resume: only the missing seeds run; output matches the baseline
	// byte for byte.
	resumed := newFakeRunner()
	var out2 bytes.Buffer
	failed, err := RunLocal(context.Background(),
		Config{Seeds: seeds, Small: true, Workers: 1, CheckpointPath: path},
		resumed.run, &out2)
	if err != nil || failed != 0 {
		t.Fatalf("resumed run: failed=%d err=%v", failed, err)
	}
	if got := resumed.total(); got != seeds-ran {
		t.Fatalf("resumed run executed %d seeds, want only the %d missing", got, seeds-ran)
	}
	if !bytes.Equal(out2.Bytes(), baseline) {
		t.Fatalf("resumed table differs from uninterrupted run:\n--- baseline ---\n%s\n--- resumed ---\n%s",
			baseline, out2.String())
	}
}

// TestSweepParameterMismatchStartsFresh verifies a checkpoint written
// for different sweep parameters is ignored rather than merged.
func TestSweepParameterMismatchStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	first := newFakeRunner()
	if _, err := RunLocal(context.Background(),
		Config{Seeds: 4, Small: true, Workers: 1, CheckpointPath: path},
		first.run, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// Different seed count: every seed must run again.
	second := newFakeRunner()
	if _, err := RunLocal(context.Background(),
		Config{Seeds: 6, Small: true, Workers: 1, CheckpointPath: path},
		second.run, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := second.total(); got != 6 {
		t.Fatalf("mismatched checkpoint partially reused: %d seeds ran, want 6", got)
	}
}

// TestSweepCountsFailedSeeds verifies failures are reported in the
// return value (cmd/sweep turns this into a non-zero exit and the
// "failed seeds: N" line) and that failed seeds are not checkpointed —
// a rerun retries them.
func TestSweepCountsFailedSeeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	flaky := newFakeRunner()
	flaky.fail[2] = true
	flaky.fail[5] = true
	failed, err := RunLocal(context.Background(),
		Config{Seeds: 6, Small: true, Workers: 2, CheckpointPath: path},
		flaky.run, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Fatalf("failed = %d, want 2", failed)
	}
	// Rerun with the failures healed: exactly the two failed seeds run.
	healed := newFakeRunner()
	failed, err = RunLocal(context.Background(),
		Config{Seeds: 6, Small: true, Workers: 2, CheckpointPath: path},
		healed.run, &bytes.Buffer{})
	if err != nil || failed != 0 {
		t.Fatalf("healed rerun: failed=%d err=%v", failed, err)
	}
	if got := healed.total(); got != 2 {
		t.Fatalf("healed rerun executed %d seeds, want 2", got)
	}
}

// TestSweepTableStable pins the fake-metrics table so accidental
// format drift in tableRows is visible, and shows that the table does
// not depend on the worker count.
func TestSweepTableStable(t *testing.T) {
	var a, b bytes.Buffer
	for _, run := range []struct {
		workers int
		out     *bytes.Buffer
	}{{1, &a}, {3, &b}} {
		if _, err := RunLocal(context.Background(),
			Config{Seeds: 3, Small: true, Workers: run.workers},
			newFakeRunner().run, run.out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same sweep, different tables:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !bytes.Contains(a.Bytes(), []byte("Hu tagged coverage %")) {
		t.Fatalf("table missing metrics:\n%s", a.String())
	}
}

// TestSweepGolden runs the real scenario (reduced scale) over four
// seeds and compares the table with the committed golden. If the
// scenario, the metric extraction or the renderer drifts, the
// fingerprint breaks.
func TestSweepGolden(t *testing.T) {
	const seeds = 4
	var out bytes.Buffer
	failed, err := RunLocal(context.Background(),
		Config{Seeds: seeds, Small: true, Workers: seeds},
		ScenarioRunner(true, mailflow.Metrics{}, nil), &out)
	if err != nil || failed != 0 {
		t.Fatalf("sweep: failed=%d err=%v", failed, err)
	}
	checkGolden(t, "sweep_table", out.Bytes())
}

// checkGolden compares got against testdata/<name>.golden, rewriting
// it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
