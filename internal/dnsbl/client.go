package dnsbl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/resilient"
)

// ErrServFail is returned when the server answered but with a failure
// code.
var ErrServFail = errors.New("dnsbl: server failure")

// ErrTimeout classifies an attempt that died waiting on the network —
// the retryable case (UDP drop, slow server) — as opposed to hard
// failures like a refused connection or a malformed zone. Errors
// wrapping it also satisfy net.Error with Timeout() == true.
var ErrTimeout = errors.New("dnsbl: timeout")

// timeoutError wraps an underlying net.Error timeout so callers can
// match either the ErrTimeout sentinel or the original error.
type timeoutError struct{ err error }

func (e *timeoutError) Error() string   { return "dnsbl: timeout: " + e.err.Error() }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }
func (e *timeoutError) Unwrap() []error { return []error{ErrTimeout, e.err} }

// Client queries a DNSBL server over UDP. It is safe for concurrent
// use once configured: the MTA shares one client across all of its
// connection goroutines.
type Client struct {
	// Addr is the server's UDP address.
	Addr string
	// Suffix is the DNSBL zone ("dbl.example").
	Suffix string
	// Timeout per attempt (default 2s) and Retries (default 2
	// additional attempts) — UDP drops are normal.
	Timeout time.Duration
	Retries int
	// Dial overrides the dialer (default net.Dial); chaos tests and
	// multi-homed deployments plug in here.
	Dial resilient.DialFunc
	// Backoff spaces the retry attempts so a congested or flapping
	// server is not hammered back-to-back. The zero value applies
	// resilient defaults (50ms base, doubling, 5s cap); jitter is
	// drawn from the client's seeded stream.
	Backoff resilient.Backoff
	// Metrics observes lookups; the zero value is inert. Set before
	// the client is shared across goroutines.
	Metrics ClientMetrics

	rng *randutil.Locked
}

// NewClient creates a client for a DNSBL zone at addr.
func NewClient(addr, suffix string, seed uint64) *Client {
	c := &Client{
		Addr:    addr,
		Suffix:  suffix,
		Timeout: 2 * time.Second,
		Retries: 2,
		rng:     randutil.NewLocked(randutil.NewNamed(seed, "dnsbl-client")),
	}
	c.Backoff = resilient.Backoff{Jitter: 0.5, Rand: c.rng.Float64}
	return c
}

// Listed queries whether d is on the blacklist.
func (c *Client) Listed(d domain.Name) (bool, error) {
	return c.ListedContext(context.Background(), d)
}

// ListedContext is Listed bounded by ctx: cancellation interrupts the
// in-flight exchange and stops further retries, and a ctx deadline
// earlier than the per-attempt timeout wins.
func (c *Client) ListedContext(ctx context.Context, d domain.Name) (bool, error) {
	resp, err := c.query(ctx, d, TypeA)
	if err != nil {
		return false, err
	}
	switch resp.Header.RCode {
	case RCodeNXDomain:
		return false, nil
	case RCodeNoError:
		for _, a := range resp.Answers {
			if a.Type == TypeA && len(a.Data) == 4 && a.Data[0] == 127 {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("%w: rcode %d", ErrServFail, resp.Header.RCode)
	}
}

// Reason returns the TXT listing reason for d ("" when unlisted).
func (c *Client) Reason(d domain.Name) (string, error) {
	return c.ReasonContext(context.Background(), d)
}

// ReasonContext is Reason bounded by ctx (see ListedContext).
func (c *Client) ReasonContext(ctx context.Context, d domain.Name) (string, error) {
	resp, err := c.query(ctx, d, TypeTXT)
	if err != nil {
		return "", err
	}
	if resp.Header.RCode == RCodeNXDomain {
		return "", nil
	}
	if resp.Header.RCode != RCodeNoError {
		return "", fmt.Errorf("%w: rcode %d", ErrServFail, resp.Header.RCode)
	}
	for _, a := range resp.Answers {
		if a.Type == TypeTXT {
			strs, err := TXTStrings(a.Data)
			if err != nil {
				return "", err
			}
			if len(strs) > 0 {
				return strs[0], nil
			}
		}
	}
	return "", nil
}

// query performs one lookup with retries and backoff, verifying the
// response ID. One response buffer is shared across all attempts.
// Retry sleeps are interruptible by ctx, and ctx expiry inside an
// attempt is surfaced as a permanent error so the retrier stops.
func (c *Client) query(ctx context.Context, d domain.Name, qtype uint16) (*Message, error) {
	qname := string(d) + "." + c.Suffix
	buf := make([]byte, 4096)
	var start time.Time
	if c.Metrics.QuerySeconds != nil {
		start = time.Now()
	}
	var resp *Message
	r := resilient.Retrier{
		Attempts: c.Retries + 1,
		Backoff:  c.Backoff,
		Sleep:    func(d time.Duration) { sleepCtx(ctx, d) },
		Metrics:  c.Metrics.Retry,
	}
	err := r.Do(func(int) error {
		if err := ctx.Err(); err != nil {
			return resilient.Permanent(err)
		}
		id := uint16(c.rng.Uint64())
		req := &Message{
			Header:    Header{ID: id, RecursionDesired: false},
			Questions: []Question{{Name: qname, Type: qtype, Class: ClassIN}},
		}
		raw, err := req.Pack()
		if err != nil {
			return resilient.Permanent(err)
		}
		resp, err = c.exchange(ctx, raw, id, buf)
		if err != nil && errors.Is(err, ErrTimeout) {
			c.Metrics.Timeouts.Inc()
		}
		if cerr := ctx.Err(); cerr != nil && err != nil {
			return resilient.Permanent(cerr)
		}
		return err
	})
	c.Metrics.Queries.Inc()
	if c.Metrics.QuerySeconds != nil {
		c.Metrics.QuerySeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		c.Metrics.Errors.Inc()
		return nil, err
	}
	return resp, nil
}

// sleepCtx pauses for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 || ctx.Err() != nil {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (c *Client) exchange(ctx context.Context, raw []byte, wantID uint16, buf []byte) (*Message, error) {
	dial := c.Dial
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("udp", c.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// Cancellation interrupts the blocking read by expiring the
	// connection deadline.
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now()) //nolint:errcheck
	})
	defer stop()
	deadline := time.Now().Add(c.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(raw); err != nil {
		return nil, classify(err)
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, classify(err)
		}
		resp, err := Unpack(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting until deadline
		}
		if resp.Header.ID != wantID || !resp.Header.Response {
			continue // stale or spoofed; ignore
		}
		return resp, nil
	}
}

// classify surfaces deadline expiry as the typed ErrTimeout so callers
// can distinguish drop-retry from hard failure.
func classify(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return &timeoutError{err: err}
	}
	return err
}
