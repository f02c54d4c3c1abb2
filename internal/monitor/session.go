package monitor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/phy"
)

// Source types.
const (
	// SourceScenario streams a live simulator run from the experiment
	// registry into the session.
	SourceScenario = "scenario"
	// SourcePcap replays a radiotap pcap file, optionally paced to
	// the capture's own wire timing.
	SourcePcap = "pcap"
	// SourcePush accepts frames over the HTTP ingest endpoint.
	SourcePush = "push"
)

// SourceConfig selects and parameterizes a session's ingest source.
type SourceConfig struct {
	// Type is SourceScenario, SourcePcap, or SourcePush.
	Type string `json:"type"`
	// Scenario/Seed/Scale parameterize a SourceScenario (any name
	// from the experiment registry; Scale defaults to 1).
	Scenario string  `json:"scenario,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// Path is the pcap file a SourcePcap replays.
	Path string `json:"path,omitempty"`
	// Speed paces a pcap replay against the wall clock: 1 replays at
	// the capture's own wire timing, 2 at double speed. 0 replays as
	// fast as the pipeline drains (lossless).
	Speed float64 `json:"speed,omitempty"`
}

// Config is one monitoring session's full configuration.
type Config struct {
	// Name is a free-form label echoed by the API.
	Name   string       `json:"name,omitempty"`
	Source SourceConfig `json:"source"`
	// WindowSec is the per-second history the session retains
	// (default DefaultWindowSec).
	WindowSec int `json:"window_sec,omitempty"`
	// QueueSize bounds the ingest queue (default DefaultQueueSize).
	// Paced and push sources drop (and count) frames when it is
	// full; unpaced sources block, so nothing is lost.
	QueueSize int `json:"queue_size,omitempty"`
	// Alerts are the session's threshold rules.
	Alerts []Rule `json:"alerts,omitempty"`
}

// DefaultQueueSize bounds the ingest queue when the config does not.
const DefaultQueueSize = 4096

// MaxQueueSize and MaxWindowSec bound what one session may reserve up
// front: the ingest queue (about 64 B a record, 4 MiB at the bound) and
// the per-second history ring (80 B a second, under 7 MiB for a day).
// A config above either is rejected before anything is built.
const (
	MaxQueueSize = 1 << 16
	MaxWindowSec = 24 * 60 * 60
)

// Session states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	StateStopped = "stopped"
)

// errStopped marks a source that exited because the session was
// stopped, distinguishing a stop from a source failure.
var errStopped = errors.New("monitor: session stopped")

// Session is one isolated monitoring pipeline: a source goroutine
// feeding a bounded queue, and a pump goroutine draining it through
// the Reorder window (which also drops same-air duplicates) into an
// incremental analyzer whose per-shard collector stages maintain the
// rolling window and alert engine.
type Session struct {
	ID  string
	cfg Config

	analyzer *analysis.Analyzer
	reorder  *experiment.Reorder
	win      *Window
	alerts   *AlertEngine

	queue  chan capture.Record
	cancel context.CancelFunc
	done   chan struct{}

	accepted atomic.Int64
	dropped  atomic.Int64
	rejected atomic.Int64
	deduped  atomic.Int64

	// pushMu guards pushClosed: HTTP ingest handlers are concurrent
	// writers and must not race the queue close.
	pushMu     sync.Mutex
	pushClosed bool

	mu       sync.Mutex
	state    string
	err      error
	stopping bool

	// srcErr is written by the source goroutine before it closes the
	// queue; the pump reads it after the queue drains (the channel
	// close orders the two).
	srcErr error
}

// validate rejects malformed configs before any resources are built.
func (c *Config) validate() error {
	switch c.Source.Type {
	case SourceScenario:
		if _, err := experiment.New(c.Source.Scenario, c.Source.Seed, scaleOr1(c.Source.Scale)); err != nil {
			return err
		}
	case SourcePcap:
		if c.Source.Path == "" {
			return fmt.Errorf("monitor: pcap source requires a path")
		}
		if _, err := os.Stat(c.Source.Path); err != nil {
			return fmt.Errorf("monitor: pcap source: %w", err)
		}
		if c.Source.Speed < 0 {
			return fmt.Errorf("monitor: negative replay speed")
		}
	case SourcePush:
	default:
		return fmt.Errorf("monitor: unknown source type %q", c.Source.Type)
	}
	if c.WindowSec < 0 || c.QueueSize < 0 {
		return fmt.Errorf("monitor: negative window or queue size")
	}
	if c.WindowSec > MaxWindowSec {
		return fmt.Errorf("monitor: window_sec %d above the bound %d", c.WindowSec, MaxWindowSec)
	}
	if c.QueueSize > MaxQueueSize {
		return fmt.Errorf("monitor: queue_size %d above the bound %d", c.QueueSize, MaxQueueSize)
	}
	for _, r := range c.Alerts {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// scaleOr1 maps an absent (zero) scale to full size; any other value
// goes to experiment.New, which rejects one that is not above 0.
func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// newSession builds and starts a session. ctx bounds the session's
// lifetime: canceling it stops the source and drains the pipeline.
func newSession(ctx context.Context, id string, cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	alerts, err := NewAlertEngine(cfg.Alerts)
	if err != nil {
		return nil, err
	}
	win := NewWindow(cfg.WindowSec)
	// Only the collector runs: nothing reads the analyzer's Result,
	// and a registered stage's per-second state would grow with trace
	// time instead of staying within the Window's ring.
	analyzer, err := analysis.New(analysis.Options{
		Extra: []analysis.Factory{newCollectorFactory(win, alerts)},
	})
	if err != nil {
		return nil, err
	}
	qs := cfg.QueueSize
	if qs <= 0 {
		qs = DefaultQueueSize
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		ID: id, cfg: cfg,
		analyzer: analyzer, win: win, alerts: alerts,
		queue:  make(chan capture.Record, qs),
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StateRunning,
	}
	s.reorder = experiment.NewReorder(func(rec capture.Record) { s.analyzer.Feed(rec) })

	switch cfg.Source.Type {
	case SourceScenario:
		scn, _ := experiment.New(cfg.Source.Scenario, cfg.Source.Seed, scaleOr1(cfg.Source.Scale))
		run, err := scn.Build()
		if err != nil {
			cancel()
			return nil, err
		}
		go s.runScenario(sctx, run)
	case SourcePcap:
		go s.runPcap(sctx)
	case SourcePush:
		// No source goroutine: Stop closes the queue.
	}
	go s.pump()
	return s, nil
}

// validateRecord enforces the streaming stages' input contract: the
// reorder horizon only bounds memory for frames up to the maximum
// legal wire size at a valid rate; a record carries no more frame
// bytes than its wire length (capture.FromPcap's rule), because a
// Reorder slot keeps the largest buffer it held for the session's
// life; the window only orders records whose end time it can compute;
// and the analyzer keeps state per channel, so only the 14 channels
// of the band may reach it.
func validateRecord(rec capture.Record) error {
	if !rec.Rate.Valid() {
		return fmt.Errorf("monitor: invalid rate %d", rec.Rate)
	}
	if !rec.Channel.Valid() {
		return fmt.Errorf("monitor: invalid channel %d", rec.Channel)
	}
	if rec.OrigLen <= 0 || rec.OrigLen > experiment.MaxReorderWire {
		return fmt.Errorf("monitor: wire length %d outside (0, %d]", rec.OrigLen, experiment.MaxReorderWire)
	}
	if len(rec.Frame) > rec.OrigLen {
		return fmt.Errorf("monitor: %d frame bytes exceed wire length %d", len(rec.Frame), rec.OrigLen)
	}
	if !experiment.InReorderRange(rec.Time, phy.Airtime(rec.OrigLen, rec.Rate)) {
		return fmt.Errorf("monitor: timestamp %d µs out of range", rec.Time)
	}
	return nil
}

// enqueueBlocking is the lossless path: it waits for queue space and
// reports false only when the session is stopped.
func (s *Session) enqueueBlocking(ctx context.Context, rec capture.Record) bool {
	select {
	case s.queue <- rec:
		s.accepted.Add(1)
		return true
	case <-ctx.Done():
		return false
	}
}

// enqueue is the live path: a full queue drops the frame and counts
// it, modeling a capture interface whose consumer fell behind.
func (s *Session) enqueue(rec capture.Record) bool {
	select {
	case s.queue <- rec:
		s.accepted.Add(1)
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// runScenario streams a simulator run into the queue. RunStream has no
// cancellation hook, so a stop aborts it by panicking out of the sink
// and recovering here.
func (s *Session) runScenario(ctx context.Context, run experiment.Run) {
	defer close(s.queue)
	defer func() {
		if r := recover(); r != nil {
			if r != errStopped {
				panic(r)
			}
			s.srcErr = errStopped
		}
	}()
	run.RunStream(func(rec capture.Record) {
		// RunStream's frames alias reused buffers, valid only during
		// this call; the queue outlives it.
		rec.Frame = append([]byte(nil), rec.Frame...)
		if err := validateRecord(rec); err != nil {
			s.rejected.Add(1)
			return
		}
		if !s.enqueueBlocking(ctx, rec) {
			panic(errStopped)
		}
	})
}

// runPcap replays a radiotap pcap into the queue, pacing against the
// wall clock when Speed > 0.
func (s *Session) runPcap(ctx context.Context) {
	defer close(s.queue)
	s.srcErr = s.replayPcap(ctx)
}

func (s *Session) replayPcap(ctx context.Context) error {
	f, err := os.Open(s.cfg.Source.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	cur, err := capture.NewCursor(f)
	if err != nil {
		return err
	}
	speed := s.cfg.Source.Speed
	var base phy.Micros
	var start time.Time
	first := true
	skipped := 0
	for {
		if ctx.Err() != nil {
			return errStopped
		}
		rec, err := cur.Next()
		if n := cur.Skipped(); n > skipped {
			s.rejected.Add(int64(n - skipped)) // undecodable radiotap
			skipped = n
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := validateRecord(rec); err != nil {
			s.rejected.Add(1)
			continue
		}
		// The cursor reuses rec's frame buffer; the queue outlives it.
		rec.Frame = bytes.Clone(rec.Frame)
		if speed > 0 {
			if first {
				base, start, first = rec.Time, time.Now(), false
			} else if target := time.Duration(float64(rec.Time-base) / speed * float64(time.Microsecond)); target > time.Since(start) {
				select {
				case <-time.After(target - time.Since(start)):
				case <-ctx.Done():
					return errStopped
				}
			}
			s.enqueue(rec)
			continue
		}
		if !s.enqueueBlocking(ctx, rec) {
			return errStopped
		}
	}
}

// Ingest accepts a batch of pushed records (the HTTP ingest path).
// Invalid records are rejected individually; a full queue drops.
func (s *Session) Ingest(recs []capture.Record) (accepted, dropped, rejected int, err error) {
	if s.cfg.Source.Type != SourcePush {
		return 0, 0, 0, fmt.Errorf("monitor: session %s is not a push session", s.ID)
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	if s.pushClosed {
		return 0, 0, 0, fmt.Errorf("monitor: session %s is not accepting frames", s.ID)
	}
	for _, rec := range recs {
		if validateRecord(rec) != nil {
			s.rejected.Add(1)
			rejected++
			continue
		}
		if s.enqueue(rec) {
			accepted++
		} else {
			dropped++
		}
	}
	return accepted, dropped, rejected, nil
}

// pump drains the queue through the Reorder window into the
// analyzer, then finalizes: flushing the reorder buffer, closing the
// final partial second (which fires the last alert evaluation), and
// settling the terminal state.
func (s *Session) pump() {
	defer close(s.done)
	ro := s.reorder
	for rec := range s.queue {
		ro.Add(rec)
		s.deduped.Store(ro.Dropped)
	}
	ro.Flush()
	s.deduped.Store(ro.Dropped)
	s.analyzer.Result()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.srcErr == nil && !s.stopping:
		s.state = StateDone
	case s.srcErr == nil || errors.Is(s.srcErr, errStopped):
		s.state = StateStopped
	default:
		s.state = StateFailed
		s.err = s.srcErr
	}
}

// Stop cancels the session's source, drains the pipeline, and waits
// for the pump to settle the terminal state. Idempotent.
func (s *Session) Stop() {
	s.mu.Lock()
	if s.state == StateRunning {
		s.stopping = true
	}
	s.mu.Unlock()
	s.cancel()
	if s.cfg.Source.Type == SourcePush {
		s.pushMu.Lock()
		if !s.pushClosed {
			s.pushClosed = true
			close(s.queue)
		}
		s.pushMu.Unlock()
	}
	<-s.done
}

// Done exposes the pump's completion for tests and the manager.
func (s *Session) Done() <-chan struct{} { return s.done }

// Metrics aggregates the session's rolling window.
func (s *Session) Metrics(windowSec int) WindowMetrics { return s.win.Metrics(windowSec) }

// Series returns the most recent closed per-second buckets.
func (s *Session) Series(n int) []Bucket { return s.win.Series(n) }

// Alerts exposes the alert engine (status + history).
func (s *Session) Alerts() *AlertEngine { return s.alerts }

// View is the API's JSON representation of a session.
type View struct {
	ID     string       `json:"id"`
	Name   string       `json:"name,omitempty"`
	State  string       `json:"state"`
	Error  string       `json:"error,omitempty"`
	Source SourceConfig `json:"source"`
	// WindowSec is the retained history; QueueCap the ingest bound.
	WindowSec int `json:"window_sec"`
	QueueCap  int `json:"queue_cap"`
	// Ingest accounting: Accepted entered the queue, Dropped hit a
	// full queue, Rejected failed validation, Deduped collapsed as
	// cross-sniffer duplicates.
	Accepted int64 `json:"accepted"`
	Dropped  int64 `json:"dropped"`
	Rejected int64 `json:"rejected"`
	Deduped  int64 `json:"deduped,omitempty"`
	// Analyzer progress, from the goroutine-safe snapshot.
	Frames      int64 `json:"frames"`
	ParseErrors int64 `json:"parse_errors"`
	Channels    int   `json:"channels"`
	LastSecond  int64 `json:"last_second"`
}

// View snapshots the session for the API.
func (s *Session) View() View {
	s.mu.Lock()
	state, serr := s.state, s.err
	s.mu.Unlock()
	snap := s.analyzer.Snapshot()
	v := View{
		ID: s.ID, Name: s.cfg.Name, State: state,
		Source:    s.cfg.Source,
		WindowSec: s.win.Capacity(),
		QueueCap:  cap(s.queue),
		Accepted:  s.accepted.Load(),
		Dropped:   s.dropped.Load(),
		Rejected:  s.rejected.Load(),
		Deduped:   s.deduped.Load(),
		Frames:    snap.Frames, ParseErrors: snap.ParseErrors,
		Channels:   snap.Channels,
		LastSecond: int64(snap.LastTime / phy.MicrosPerSecond),
	}
	if serr != nil {
		v.Error = serr.Error()
	}
	return v
}
