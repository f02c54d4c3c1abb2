// Command wland is the live congestion-monitoring daemon: it owns
// concurrent monitoring sessions — live scenario runs, paced pcap
// replays, or HTTP frame ingest — and serves their rolling-window
// congestion metrics and threshold alerts over an HTTP/JSON API.
//
// Usage:
//
//	wland [-addr 127.0.0.1:8211] [-max-sessions 8] [-window 300]
//
// The API surface (see internal/monitor):
//
//	GET    /healthz
//	GET    /api/v1/sessions
//	POST   /api/v1/sessions
//	GET    /api/v1/sessions/{id}
//	DELETE /api/v1/sessions/{id}
//	GET    /api/v1/sessions/{id}/metrics?window=SECONDS
//	GET    /api/v1/sessions/{id}/series?seconds=N
//	GET    /api/v1/sessions/{id}/alerts
//	POST   /api/v1/sessions/{id}/ingest
//
// Unversioned /api/sessions... paths answer 404.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops
// accepting, every session's source is canceled, and each pipeline
// drains (reorder flush, final second close, last alert evaluation)
// before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wlan80211/internal/monitor"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8211", "listen address")
	maxSessions := flag.Int("max-sessions", monitor.DefaultMaxSessions,
		"maximum concurrent monitoring sessions (finished sessions count until deleted)")
	window := flag.Int("window", monitor.DefaultWindowSec,
		fmt.Sprintf("default per-second history retained by each session (at most %d)", monitor.MaxWindowSec))
	flag.Parse()
	if *window > monitor.MaxWindowSec {
		fmt.Fprintf(os.Stderr, "wland: -window %d above the bound %d\n", *window, monitor.MaxWindowSec)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := runDaemon(ctx, *addr, *maxSessions, *window, nil); err != nil {
		log.Fatalf("wland: %v", err)
	}
}

// drainTimeout bounds the graceful shutdown: in-flight HTTP requests
// and session drains must settle within it.
const drainTimeout = 30 * time.Second

// runDaemon runs the daemon until ctx is canceled, then drains. When
// ready is non-nil the bound address is sent on it once the listener
// is up (the E2E test binds port 0).
func runDaemon(ctx context.Context, addr string, maxSessions, window int, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mgr := monitor.NewManager(ctx, maxSessions)
	mgr.SetDefaultWindow(window)
	srv := &http.Server{Handler: monitor.NewServer(mgr)}

	log.Printf("wland: listening on %s (max %d sessions, %ds window)", ln.Addr(), maxSessions, window)
	if ready != nil {
		ready <- ln.Addr()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}

	log.Printf("wland: shutting down, draining sessions")
	shctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(shctx)
	// The manager's sessions share ctx, so their sources are already
	// stopping; Close blocks until every pipeline drains.
	mgr.Close()
	log.Printf("wland: drained")
	return shutdownErr
}
