// Package lifecycle is the run/drain vocabulary of the operational
// stack: how servers stop without losing work, how supervised
// goroutines restart without leaking, and how an operator asks "is
// this process alive and ready".
//
// PR 1 made the network layer survivable (retry, breaker, fault
// injection); this package makes the *processes* survivable. Every
// server in the pipeline (smtpd, dnsbl, feedsync, webhost, mta)
// implements Server: Shutdown stops accepting new work, lets in-flight
// sessions finish, and force-closes only when the caller's context
// expires. Stack composes servers into one ordered unit — started
// first, drained last — so a SIGTERM drains the mail path before the
// blacklist it queries.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Server is anything that can drain gracefully. All pipeline servers
// (smtpd.Server, dnsblplane.Server, feedsync.Server, webhost.Server,
// mta.Server) satisfy it.
type Server interface {
	// Shutdown stops accepting new sessions and blocks until every
	// in-flight session has completed or ctx is done — at which point
	// remaining sessions are force-closed and ctx.Err() returned.
	// Shutdown is idempotent; after it returns the server is closed.
	Shutdown(ctx context.Context) error
	// Close force-closes immediately (the abrupt path Shutdown falls
	// back to). Idempotent and safe concurrently with Shutdown.
	Close() error
}

// Run blocks until ctx is cancelled, then shuts srv down with a
// bounded drain: in-flight sessions get up to drainTimeout to finish
// before being force-closed. It returns the Shutdown error (nil for a
// clean drain; context.DeadlineExceeded when the drain was cut short).
func Run(ctx context.Context, srv Server, drainTimeout time.Duration) error {
	<-ctx.Done()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return srv.Shutdown(dctx)
}

// Stack is an ordered set of servers shut down in reverse of the order
// they were added — dependencies first in, last out, so a front-end
// drains before the back-end it still needs for its in-flight work.
type Stack struct {
	mu      sync.Mutex
	entries []stackEntry
}

type stackEntry struct {
	name string
	srv  Server
}

// Add registers a server under a name used in error reports. Add in
// dependency order: backends first.
func (st *Stack) Add(name string, srv Server) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries = append(st.entries, stackEntry{name, srv})
}

// Shutdown drains every server in reverse registration order, sharing
// one deadline. It keeps going past failures and returns them joined,
// so one stuck server cannot prevent the rest from draining.
func (st *Stack) Shutdown(ctx context.Context) error {
	st.mu.Lock()
	entries := make([]stackEntry, len(st.entries))
	copy(entries, st.entries)
	st.mu.Unlock()
	var errs []error
	for i := len(entries) - 1; i >= 0; i-- {
		if err := entries[i].srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", entries[i].name, err))
		}
	}
	return errors.Join(errs...)
}

// Close force-closes every server in reverse registration order.
func (st *Stack) Close() error {
	st.mu.Lock()
	entries := make([]stackEntry, len(st.entries))
	copy(entries, st.entries)
	st.mu.Unlock()
	var errs []error
	for i := len(entries) - 1; i >= 0; i-- {
		if err := entries[i].srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", entries[i].name, err))
		}
	}
	return errors.Join(errs...)
}
