package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/sweep"
)

// The sweep core's own tests live in internal/sweep (resume
// byte-identity, checkpoint parameter matching, failure counting, the
// golden table). Here we pin the -retry-failed flag's contract: a
// transiently failing seed is re-run within the same sweep and only a
// seed that exhausts its retry budget lands in the failed count.

// flakySeed fails its first n attempts for one seed index, then
// succeeds; all other seeds succeed immediately.
type flakySeed struct {
	mu       sync.Mutex
	seed     int
	fails    int
	calls    map[int]int
	permFail bool
}

func (f *flakySeed) run(i int, seed uint64) (map[string]float64, error) {
	f.mu.Lock()
	f.calls[i]++
	n := f.calls[i]
	f.mu.Unlock()
	if i == f.seed && (f.permFail || n <= f.fails) {
		return nil, errors.New("transient blip")
	}
	return map[string]float64{"Hu tagged coverage %": 50 + float64(i)}, nil
}

// coverageRow returns the fields of the table's "Hu tagged coverage %"
// row: name words, mean, stddev, min, max and N.
func coverageRow(t *testing.T, table string) []string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "Hu tagged coverage %") {
			return strings.Fields(line)
		}
	}
	t.Fatalf("table has no coverage row:\n%s", table)
	return nil
}

func TestRetryFailedReRunsTransientSeeds(t *testing.T) {
	var slept []time.Duration
	flaky := &flakySeed{seed: 2, fails: 2, calls: map[int]int{}}
	cfg := sweep.Config{
		Seeds:       4,
		Small:       true,
		Workers:     1,
		RetryFailed: 2,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	failed, err := sweep.RunLocal(context.Background(), cfg, flaky.run, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("failed = %d, want 0 (retries should have healed seed 2)", failed)
	}
	if got := flaky.calls[2]; got != 3 {
		t.Fatalf("seed 2 ran %d times, want 3 (two failures + success)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("retry backoff slept %d times, want 2", len(slept))
	}
}

func TestRetryFailedBudgetExhaustedCountsSeed(t *testing.T) {
	flaky := &flakySeed{seed: 1, permFail: true, calls: map[int]int{}}
	cfg := sweep.Config{
		Seeds:       3,
		Small:       true,
		Workers:     1,
		RetryFailed: 2,
		Sleep:       func(time.Duration) {},
	}
	failed, err := sweep.RunLocal(context.Background(), cfg, flaky.run, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	if got := flaky.calls[1]; got != 3 {
		t.Fatalf("seed 1 attempted %d times, want 3 (the full retry budget)", got)
	}
}

// TestValidateFlags pins the up-front flag validation: a negative
// retry budget and an unwritable or nonsensical checkpoint path are
// refused before any seed runs.
func TestValidateFlags(t *testing.T) {
	if err := validate(-1, ""); err == nil {
		t.Fatal("negative -retry-failed accepted")
	}
	if err := validate(0, ""); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	dir := t.TempDir()
	if err := validate(2, filepath.Join(dir, "deep", "nested", "sweep.ckpt")); err != nil {
		t.Fatalf("creatable nested checkpoint path rejected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "deep", "nested")); err != nil {
		t.Fatalf("validate did not create the checkpoint directory: %v", err)
	}
	if err := validate(0, dir); err == nil {
		t.Fatal("directory accepted as a checkpoint file path")
	}
	// A regular file in the middle of the path cannot become a
	// directory.
	if err := os.WriteFile(filepath.Join(dir, "plain"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validate(0, filepath.Join(dir, "plain", "sweep.ckpt")); err == nil {
		t.Fatal("path through a regular file accepted")
	}

	// An unwritable parent is refused up front.
	locked := filepath.Join(dir, "locked")
	if err := os.Mkdir(locked, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(locked, 0o755) //nolint:errcheck
	if os.Getuid() != 0 {
		if err := validate(0, filepath.Join(locked, "sweep.ckpt")); err == nil {
			t.Fatal("checkpoint in read-only directory accepted")
		}
	}
}

// TestRetryDisabledByDefault pins the seed behaviour: without
// -retry-failed a failing seed is tried exactly once.
func TestRetryDisabledByDefault(t *testing.T) {
	flaky := &flakySeed{seed: 0, permFail: true, calls: map[int]int{}}
	failed, err := sweep.RunLocal(context.Background(),
		sweep.Config{Seeds: 2, Small: true, Workers: 1}, flaky.run, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || flaky.calls[0] != 1 {
		t.Fatalf("failed=%d calls=%d, want 1 and 1", failed, flaky.calls[0])
	}
}

// TestRetryHealsTransientFailure pins what a healed seed leaves
// behind at the default worker count: it ran three times with two
// backoff pauses between, and its metrics reach the table, so the
// coverage row counts all four seeds.
func TestRetryHealsTransientFailure(t *testing.T) {
	var slept []time.Duration
	flaky := &flakySeed{seed: 2, fails: 2, calls: map[int]int{}}
	cfg := sweep.Config{
		Seeds:       4,
		Small:       true,
		Workers:     4,
		RetryFailed: 2,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	var out bytes.Buffer
	failed, err := sweep.RunLocal(context.Background(), cfg, flaky.run, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || flaky.calls[2] != 3 || len(slept) != 2 {
		t.Fatalf("failed=%d calls=%d sleeps=%d, want 0, 3 and 2", failed, flaky.calls[2], len(slept))
	}
	// Seeds 0-3 give 50..53, so N is 4 and the mean 51.50.
	row := coverageRow(t, out.String())
	if got := strings.Join(row[4:], " "); got != "51.50 1.29 50.00 53.00 4" {
		t.Fatalf("coverage row stats = %q, want the healed seed counted", got)
	}
}

// TestRetryExhaustsBudget pins that a seed which never succeeds is
// tried 1+N times for a budget of N, pauses between each try, and
// has its last error reported.
func TestRetryExhaustsBudget(t *testing.T) {
	flaky := &flakySeed{seed: 1, permFail: true, calls: map[int]int{}}
	sleeps := 0
	var errw bytes.Buffer
	cfg := sweep.Config{
		Seeds:       3,
		Small:       true,
		Workers:     1,
		RetryFailed: 4,
		Sleep:       func(time.Duration) { sleeps++ },
		Errw:        &errw,
	}
	failed, err := sweep.RunLocal(context.Background(), cfg, flaky.run, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || flaky.calls[1] != 5 || sleeps != 4 {
		t.Fatalf("failed=%d calls=%d sleeps=%d, want 1, 5 (1 + 4 retries) and 4", failed, flaky.calls[1], sleeps)
	}
	if want := "sweep: seed 8919: transient blip\n"; errw.String() != want {
		t.Fatalf("stderr = %q, want %q", errw.String(), want)
	}
}

// TestRetryZeroExtraIsPassthrough pins that a retry budget of zero,
// or a negative one, tries a failing seed exactly once, never pauses,
// and reports its error unchanged.
func TestRetryZeroExtraIsPassthrough(t *testing.T) {
	for _, extra := range []int{0, -1} {
		flaky := &flakySeed{seed: 0, permFail: true, calls: map[int]int{}}
		sleeps := 0
		var errw bytes.Buffer
		cfg := sweep.Config{
			Seeds:       2,
			Small:       true,
			Workers:     1,
			RetryFailed: extra,
			Sleep:       func(time.Duration) { sleeps++ },
			Errw:        &errw,
		}
		failed, err := sweep.RunLocal(context.Background(), cfg, flaky.run, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		if failed != 1 || flaky.calls[0] != 1 || sleeps != 0 {
			t.Fatalf("RetryFailed=%d: failed=%d calls=%d sleeps=%d, want 1, 1 and 0", extra, failed, flaky.calls[0], sleeps)
		}
		if want := "sweep: seed 1000: transient blip\n"; errw.String() != want {
			t.Fatalf("RetryFailed=%d: stderr = %q, want %q", extra, errw.String(), want)
		}
	}
}
