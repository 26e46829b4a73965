package lifecycle

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeServer records shutdown order and can stall until force-closed.
type fakeServer struct {
	name  string
	order *[]string
	mu    *sync.Mutex
	stall bool
}

func (f *fakeServer) Shutdown(ctx context.Context) error {
	if f.stall {
		<-ctx.Done()
		return ctx.Err()
	}
	f.mu.Lock()
	*f.order = append(*f.order, f.name)
	f.mu.Unlock()
	return nil
}

func (f *fakeServer) Close() error { return nil }

func TestStackShutdownReverseOrder(t *testing.T) {
	var order []string
	var mu sync.Mutex
	st := &Stack{}
	for _, name := range []string{"backend", "middle", "frontend"} {
		st.Add(name, &fakeServer{name: name, order: &order, mu: &mu})
	}
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"frontend", "middle", "backend"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("shutdown order %v, want %v", order, want)
		}
	}
}

func TestStackShutdownContinuesPastStuckServer(t *testing.T) {
	var order []string
	var mu sync.Mutex
	st := &Stack{}
	st.Add("backend", &fakeServer{name: "backend", order: &order, mu: &mu})
	st.Add("stuck", &fakeServer{name: "stuck", order: &order, mu: &mu, stall: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := st.Shutdown(ctx)
	if err == nil {
		t.Fatal("stuck server's failure swallowed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 1 || order[0] != "backend" {
		t.Fatalf("backend not drained after stuck frontend: %v", order)
	}
}

func TestRunDrainsOnCancel(t *testing.T) {
	var order []string
	var mu sync.Mutex
	srv := &fakeServer{name: "srv", order: &order, mu: &mu}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, srv, time.Second) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 1 {
		t.Fatal("server was not shut down")
	}
}
