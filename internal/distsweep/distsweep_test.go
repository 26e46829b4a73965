package distsweep

import (
	"bytes"
	"context"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/resilient"
)

// Integration tests: coordinator and workers talking over real TCP.
// Chaos variants (kills, restarts, partitions) live in chaos_test.go;
// here we pin the healthy paths and the determinism tripwire.

// redialer returns a dial func that ignores the worker's configured
// address and connects to whatever *cur holds — letting workers follow
// a coordinator that restarts on a fresh port.
func redialer(mu *sync.Mutex, cur *string) resilient.DialFunc {
	return func(network, _ string) (net.Conn, error) {
		mu.Lock()
		addr := *cur
		mu.Unlock()
		return net.DialTimeout(network, addr, 2*time.Second)
	}
}

// fastWorker builds a Worker tuned for tests: quick heartbeats and
// polls so healthy runs finish in milliseconds even under -race.
func fastWorker(addr, id string, run SeedRunner) *Worker {
	return &Worker{
		Addr:           addr,
		ID:             id,
		Runner:         run,
		DialTimeout:    5 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond,
		PollInterval:   5 * time.Millisecond,
		Backoff:        resilient.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}
}

// startWorkers launches n workers against addr sharing one runner and
// returns a channel per worker carrying its Run error.
func startWorkers(ctx context.Context, addr string, n int, run SeedRunner) []chan error {
	errs := make([]chan error, n)
	for i := range errs {
		ch := make(chan error, 1)
		errs[i] = ch
		w := fastWorker(addr, "w"+strconv.Itoa(i), run)
		go func() { ch <- w.Run(ctx) }()
	}
	return errs
}

// waitFor polls cond every millisecond until it holds, failing the
// test when ctx expires first. (Engine-class test code is under the
// wallclock ban like the package itself, so pacing goes through the
// package's timer-based sleepCtx rather than time.Sleep.)
func waitFor(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if !sleepCtx(ctx, time.Millisecond) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func waitWorkers(t *testing.T, errs []chan error) {
	t.Helper()
	for i, ch := range errs {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit", i)
		}
	}
}

// TestDistSweepMatchesLocal is the core scale-out claim: a sweep
// farmed to three worker processes over TCP prints a table
// byte-identical to the single-process run.
func TestDistSweepMatchesLocal(t *testing.T) {
	const seeds = 10
	baseline := localTable(t, seeds)

	coord, err := NewCoordinator(Config{Seeds: seeds, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	coord.LeaseTimeout = 5 * time.Second
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shared := newFakeRunner()
	errs := startWorkers(ctx, addr.String(), 3, shared.run)
	if err := coord.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext: %v", err)
	}
	waitWorkers(t, errs)

	if got := coord.Failed(); got != 0 {
		t.Fatalf("Failed() = %d, want 0", got)
	}
	if got := shared.total(); got != seeds {
		t.Fatalf("workers executed %d seeds, want exactly %d (no seed run twice)", got, seeds)
	}
	var out bytes.Buffer
	if err := coord.WriteReport(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), baseline) {
		t.Fatalf("distributed table differs from single-process run:\n--- local ---\n%s\n--- distributed ---\n%s",
			baseline, out.String())
	}
}

// TestDistSweepFailedSeedResolves verifies a seed that runs and fails
// consumes its attempt budget and the sweep still completes, with the
// failure visible in Failed() — mirroring single-process semantics.
func TestDistSweepFailedSeedResolves(t *testing.T) {
	coord, err := NewCoordinator(Config{Seeds: 5, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	coord.LeaseTimeout = 5 * time.Second
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shared := newFakeRunner()
	shared.fail[3] = true
	errs := startWorkers(ctx, addr.String(), 2, shared.run)
	if err := coord.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext: %v", err)
	}
	waitWorkers(t, errs)
	if got := coord.Failed(); got != 1 {
		t.Fatalf("Failed() = %d, want 1", got)
	}
	if got := shared.count(3); got != 1 {
		t.Fatalf("failed seed attempted %d times, want 1 (default budget)", got)
	}
}

// TestDistSweepDuplicateMismatchFatal pins the determinism tripwire:
// when a stolen seed's two results disagree byte-for-byte, the run
// fails loudly instead of keeping either answer.
func TestDistSweepDuplicateMismatchFatal(t *testing.T) {
	coord, err := NewCoordinator(Config{Seeds: 2, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	coord.LeaseTimeout = 10 * time.Second
	coord.StealAfter = 30 * time.Millisecond
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Worker A grabs seed 0 and stalls until released; worker B clears
	// seed 1, steals seed 0, and delivers *different* bytes for it.
	release := make(chan struct{})
	var once sync.Once
	// entered is closed once worker A is inside seed 0.
	entered := make(chan struct{})
	var enterOnce sync.Once
	slowRun := func(i int, seed uint64) (map[string]float64, error) {
		if i == 0 {
			enterOnce.Do(func() { close(entered) })
			<-release
			return fakeMetrics(0), nil
		}
		return fakeMetrics(i), nil
	}
	divergentRun := func(i int, seed uint64) (map[string]float64, error) {
		if i == 0 {
			m := fakeMetrics(0)
			m["Hu tagged coverage %"] += 1 // nondeterminism, simulated
			return m, nil
		}
		return fakeMetrics(i), nil
	}

	slow := fastWorker(addr.String(), "slow", slowRun)
	errA := make(chan error, 1)
	go func() { errA <- slow.Run(ctx) }()
	// The coordinator leases the lowest free seed to whichever worker
	// asks first, so the thief starts only once A holds seed 0;
	// otherwise the thief could take seed 0 and leave A seed 1.
	select {
	case <-entered:
	case <-ctx.Done():
		t.Fatal("slow worker never started seed 0")
	}
	thief := fastWorker(addr.String(), "thief", divergentRun)
	errB := make(chan error, 1)
	go func() { errB <- thief.Run(ctx) }()

	// Once the thief's divergent result for seed 0 is stored, every
	// seed is resolved; release the slow worker to deliver the
	// conflicting bytes.
	waitFor(t, ctx, "the thief to resolve the sweep", func() bool { return coord.Failed() == 0 })
	once.Do(func() { close(release) })

	select {
	case err := <-errA:
		if !resilient.IsPermanent(err) || !strings.Contains(err.Error(), "determinism violation") {
			t.Fatalf("slow worker err = %v, want permanent determinism violation", err)
		}
	case <-ctx.Done():
		t.Fatal("slow worker never got the fatal rejection")
	}
	if err := coord.WaitContext(ctx); err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("WaitContext = %v, want determinism violation", err)
	}
}

// TestDistSweepShutdownDrains verifies Shutdown tells idle workers
// DONE so they exit cleanly even with seeds still unresolved.
func TestDistSweepShutdownDrains(t *testing.T) {
	coord, err := NewCoordinator(Config{Seeds: 4, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	coord.SeedAttempts = 1000 // keep seed 0 unresolved: it always fails
	coord.LeaseTimeout = 5 * time.Second
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shared := newFakeRunner()
	shared.fail[0] = true
	errs := startWorkers(ctx, addr.String(), 2, shared.run)

	// Let the healthy seeds finish, then drain.
	waitFor(t, ctx, "the healthy seeds to finish", func() bool { return coord.Failed() <= 1 })
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitWorkers(t, errs)
}
