package dnsbl

import (
	"errors"
	"net"
	"testing"
	"time"

	"tasterschoice/internal/resilient"
)

// TestTypedTimeout verifies that an attempt dying on the per-attempt
// deadline surfaces as the typed ErrTimeout (still a net.Error), so
// callers can tell drop-retry from hard failure.
func TestTypedTimeout(t *testing.T) {
	// A socket nobody answers: every attempt times out.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	c := NewClient(pc.LocalAddr().String(), "dbl.test", 5)
	c.Timeout = 50 * time.Millisecond
	c.Retries = 1
	c.Backoff = resilient.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	_, err = c.Listed("anything.example")
	if err == nil {
		t.Fatal("lookup against a silent server succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is(err, ErrTimeout)", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("typed timeout lost the net.Error contract: %v", err)
	}
}

// TestHardFailureIsNotTimeout: a kernel-refused exchange (ICMP port
// unreachable) must not be classified as ErrTimeout.
func TestHardFailureIsNotTimeout(t *testing.T) {
	// Bind and immediately close to get a dead port.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := pc.LocalAddr().String()
	pc.Close()

	c := NewClient(deadAddr, "dbl.test", 6)
	c.Timeout = 100 * time.Millisecond
	c.Retries = 1
	c.Backoff = resilient.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	_, err = c.Listed("anything.example")
	if err == nil {
		t.Skip("kernel did not report the dead UDP port; nothing to classify")
	}
	var nerr net.Error
	isTimeout := errors.As(err, &nerr) && nerr.Timeout()
	if errors.Is(err, ErrTimeout) != isTimeout {
		t.Fatalf("classification mismatch: err=%v, net timeout=%v, ErrTimeout=%v",
			err, isTimeout, errors.Is(err, ErrTimeout))
	}
}
