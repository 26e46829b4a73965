// Package lifecycle is the drain vocabulary of the operational stack:
// how servers stop without losing work.
//
// Every server in the pipeline (smtpd, dnsblplane, feedsync, webhost,
// mta) implements Server: Shutdown stops accepting new work, lets
// in-flight sessions finish, and force-closes only when the caller's
// context expires. Run drains one server when its context is
// cancelled. A process that runs several servers shuts them down
// front end first, so the mail path drains before the blacklist it
// queries (drain_test.go drains such a pipeline under load).
package lifecycle

import (
	"context"
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
