package lifecycle

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeServer records that it was shut down.
type fakeServer struct {
	name  string
	order *[]string
	mu    *sync.Mutex
}

func (f *fakeServer) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	*f.order = append(*f.order, f.name)
	f.mu.Unlock()
	return nil
}

func (f *fakeServer) Close() error { return nil }

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
