// Package monitor is the live congestion-monitoring service: the
// operational layer the paper's analysis was built for. Where the
// rest of the repo analyzes finished traces, this package owns
// long-running monitoring sessions, each wiring an ingest source — a
// live scenario run, wire-speed-paced pcap replay, or an HTTP
// frame-ingest endpoint — through the experiment package's Reorder
// window (which also drops same-air duplicates) into an incremental
// analysis.Analyzer.Feed pipeline, and maintains a rolling window of
// per-second congestion metrics (channel utilization, retransmission
// rate, throughput, goodput) with threshold alerting on top.
//
// The Manager holds N concurrent sessions behind a max-sessions cap
// with per-session isolation: each session has its own analyzer,
// metric window, alert engine, bounded ingest queue with drop
// counters, and lifecycle. The HTTP/JSON API in api.go is the
// product surface; cmd/wland is the daemon.
package monitor

import (
	"sync"

	"wlan80211/internal/analysis"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// Bucket is one second of one session's rolling accounting, summed
// across that session's channels. Buckets are keyed by the trace
// clock (record timestamps), not wall time, so replayed and live
// sources share one metric definition.
type Bucket struct {
	// Second is the trace second the bucket covers.
	Second int64 `json:"second"`
	// Frames is every captured record charged to the second.
	Frames int64 `json:"frames"`
	// Data counts data frames; Retries counts data frames with the
	// MAC retry bit — the paper's retransmission signal.
	Data    int64 `json:"data"`
	Retries int64 `json:"retries"`
	// Beacons counts beacon frames.
	Beacons int64 `json:"beacons"`
	// CBT is the summed channel busy-time charge (Table 2).
	CBT phy.Micros `json:"cbt_us"`
	// Bits counts all captured bits (throughput numerator); GoodBits
	// counts goodput bits (control frames plus acknowledged data).
	Bits     int64 `json:"bits"`
	GoodBits int64 `json:"good_bits"`
	// chanMask records which channels contributed (bit per channel
	// number), so windowed utilization can normalize per channel.
	chanMask uint64
}

// add folds one annotated frame event into the bucket.
func (b *Bucket) add(ev *analysis.FrameEvent) {
	b.Frames++
	b.CBT += ev.CBT
	b.Bits += int64(ev.Rec.OrigLen) * 8
	b.GoodBits += ev.GoodputBits
	b.chanMask |= 1 << (uint(ev.Rec.Channel) & 63)
	switch ev.Kind {
	case analysis.KindData:
		b.Data++
		if d, ok := ev.Parsed.Frame.(*dot11.Data); ok && d.FC.Retry {
			b.Retries++
		}
	case analysis.KindBeacon:
		b.Beacons++
	}
}

// WindowMetrics is the rolling aggregate over the last N closed
// seconds — the values the API serves and the alert engine evaluates.
type WindowMetrics struct {
	// WindowSec is the requested window; Seconds is how many closed
	// seconds the window actually covered (less while warming up).
	WindowSec int `json:"window_sec"`
	Seconds   int `json:"seconds"`
	// FromSecond/ToSecond bound the covered trace seconds.
	FromSecond int64 `json:"from_second"`
	ToSecond   int64 `json:"to_second"`
	// Channels is the number of distinct channels observed in the
	// window (utilization normalizes per channel).
	Channels int `json:"channels"`
	// Frames and FramesPerSec count captured records.
	Frames       int64   `json:"frames"`
	FramesPerSec float64 `json:"frames_per_sec"`
	// UtilizationPct is mean channel utilization (Equation 8) over
	// the window, normalized by channel count.
	UtilizationPct float64 `json:"utilization_pct"`
	// RetryRatePct is retransmitted data frames / data frames × 100.
	RetryRatePct float64 `json:"retry_rate_pct"`
	// ThroughputMbps / GoodputMbps are windowed means.
	ThroughputMbps float64 `json:"throughput_mbps"`
	GoodputMbps    float64 `json:"goodput_mbps"`
	// Congestion classifies UtilizationPct with the paper's
	// thresholds (Sec 5.3).
	Congestion string `json:"congestion"`
}

// Window is a fixed-capacity ring of per-second buckets fed by the
// session's collector stages and read by the HTTP layer. All methods
// are goroutine-safe.
type Window struct {
	mu      sync.Mutex
	buckets []Bucket
	started bool
	// latest is the newest second any bucket was written for; closed
	// is the newest second the decoder clock has closed. Metrics and
	// Series only expose closed seconds, so a half-filled open second
	// never skews a rate.
	latest int64
	closed int64
}

// NewWindow builds a ring retaining capacity seconds of history.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = DefaultWindowSec
	}
	return &Window{buckets: make([]Bucket, capacity)}
}

// Capacity returns the deepest history the window can serve.
func (w *Window) Capacity() int { return len(w.buckets) }

// bucketFor returns the ring slot for sec, resetting it when the ring
// has wrapped past its previous tenant. Caller holds w.mu.
func (w *Window) bucketFor(sec int64) *Bucket {
	b := &w.buckets[sec%int64(len(w.buckets))]
	if b.Second != sec || !w.started {
		*b = Bucket{Second: sec}
	}
	return b
}

// Observe folds one annotated frame event into its second's bucket.
func (w *Window) Observe(ev *analysis.FrameEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	sec := ev.Second
	b := w.bucketFor(sec)
	b.add(ev)
	if !w.started || sec > w.latest {
		w.latest = sec
		if !w.started {
			w.started = true
			w.closed = sec - 1
		}
	}
}

// CloseSecond marks sec closed (the decoder clock has moved past it).
// Multiple channel shards close independently; the newest close wins.
func (w *Window) CloseSecond(sec int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		w.started = true
		w.latest = sec
		w.closed = sec
		w.bucketFor(sec) // materialize the empty second
		return
	}
	if sec > w.closed {
		// Materialize empty buckets for gap seconds so windows over
		// idle air report zeros rather than stale history.
		from := w.closed + 1
		if from < sec-int64(len(w.buckets)) {
			from = sec - int64(len(w.buckets))
		}
		for s := from; s <= sec; s++ {
			w.bucketFor(s)
		}
		w.closed = sec
		if sec > w.latest {
			w.latest = sec
		}
	}
}

// Metrics aggregates the last windowSec closed seconds. A window
// wider than the ring capacity is clamped.
func (w *Window) Metrics(windowSec int) WindowMetrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	if windowSec <= 0 {
		windowSec = DefaultMetricsWindowSec
	}
	if windowSec > len(w.buckets) {
		windowSec = len(w.buckets)
	}
	m := WindowMetrics{WindowSec: windowSec}
	if !w.started || w.closed < 0 {
		m.Congestion = analysis.Uncongested.String()
		return m
	}
	to := w.closed
	from := to - int64(windowSec) + 1
	var mask uint64
	var cbt phy.Micros
	var bits, goodBits, data, retries int64
	for s := from; s <= to; s++ {
		if s < 0 {
			continue // window reaches before the trace epoch
		}
		b := &w.buckets[s%int64(len(w.buckets))]
		if b.Second != s {
			continue // never filled (before stream start or evicted)
		}
		m.Seconds++
		if m.Seconds == 1 {
			m.FromSecond = s
		}
		m.ToSecond = s
		m.Frames += b.Frames
		data += b.Data
		retries += b.Retries
		cbt += b.CBT
		bits += b.Bits
		goodBits += b.GoodBits
		mask |= b.chanMask
	}
	if m.Seconds == 0 {
		m.Congestion = analysis.Uncongested.String()
		return m
	}
	channels := 0
	for v := mask; v != 0; v &= v - 1 {
		channels++
	}
	if channels == 0 {
		channels = 1
	}
	m.Channels = channels
	secs := float64(m.Seconds)
	m.FramesPerSec = float64(m.Frames) / secs
	m.UtilizationPct = 100 * float64(cbt) / (secs * float64(phy.MicrosPerSecond) * float64(channels))
	if data > 0 {
		m.RetryRatePct = 100 * float64(retries) / float64(data)
	}
	m.ThroughputMbps = float64(bits) / secs / 1e6
	m.GoodputMbps = float64(goodBits) / secs / 1e6
	m.Congestion = analysis.PaperClassifier().Classify(int(m.UtilizationPct)).String()
	return m
}

// Series returns up to n most recent closed seconds' buckets in
// ascending second order (copies; safe to retain).
func (w *Window) Series(n int) []Bucket {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= 0 || !w.started {
		return nil
	}
	if n > len(w.buckets) {
		n = len(w.buckets)
	}
	out := make([]Bucket, 0, n)
	for s := w.closed - int64(n) + 1; s <= w.closed; s++ {
		if s < 0 {
			continue
		}
		b := &w.buckets[s%int64(len(w.buckets))]
		if b.Second == s {
			out = append(out, *b)
		}
	}
	return out
}

// Defaults for the window layer.
const (
	// DefaultWindowSec is the ring capacity: how much per-second
	// history a session retains.
	DefaultWindowSec = 300
	// DefaultMetricsWindowSec is the window the metrics endpoint
	// aggregates when the request does not specify one.
	DefaultMetricsWindowSec = 60
)
