package monitor

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/experiment"
	"wlan80211/internal/pcapio"
	"wlan80211/internal/phy"
)

func TestPcapSessionReplayToDone(t *testing.T) {
	recs := busyQuietTrace(3, 3)
	path := writePcap(t, recs)
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePcap, Path: path},
		Alerts: []Rule{{
			Name: "congested", Metric: "utilization_pct", Op: ">=",
			Raise: 20, Clear: 5, WindowSec: 2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)

	v := s.View()
	if v.State != StateDone {
		t.Fatalf("state %q (err %q), want done", v.State, v.Error)
	}
	if v.Accepted != int64(len(recs)) || v.Dropped != 0 || v.Rejected != 0 {
		t.Fatalf("accepted/dropped/rejected = %d/%d/%d, want %d/0/0",
			v.Accepted, v.Dropped, v.Rejected, len(recs))
	}
	if v.Frames != int64(len(recs)) || v.ParseErrors != 0 {
		t.Fatalf("analyzer saw %d frames (%d parse errors), want %d", v.Frames, v.ParseErrors, len(recs))
	}

	// The full-history window covers busy and quiet phases.
	m := s.Metrics(s.win.Capacity())
	if m.Frames != int64(len(recs)) {
		t.Fatalf("windowed frames = %d, want %d", m.Frames, len(recs))
	}
	// Busy seconds saturate well past the alert threshold, so the
	// trace must have raised and then cleared the alert.
	h := s.Alerts().History()
	if len(h) < 2 || h[0].State != StateRaised || h[len(h)-1].State != StateCleared {
		t.Fatalf("alert history %+v, want raise then clear", h)
	}
}

// TestPcapSessionRejectsUndecodable: a replayed record whose radiotap
// header fails to decode is counted as rejected, and the records
// around it still flow.
func TestPcapSessionRejectsUndecodable(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeRadiotap, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []pcapio.Record{
		capture.ToPcap(beaconRec(0, phy.Channel1)),
		{TimestampMicros: 1, Data: []byte{9, 9}},
		capture.ToPcap(beaconRec(100_000, phy.Channel1)),
	} {
		if err := w.WriteRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newSession(context.Background(), "s1", Config{Source: SourceConfig{Type: SourcePcap, Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)
	if v := s.View(); v.State != StateDone || v.Accepted != 2 || v.Rejected != 1 || v.ParseErrors != 0 {
		t.Fatalf("replay with one undecodable record: %+v, want done, 2 accepted, 1 rejected, no parse errors", v)
	}
}

func TestPcapSessionPacedReplay(t *testing.T) {
	// A 100ms trace replayed at 10x finishes quickly but still paces:
	// two beacons 100ms apart arrive ≥10ms apart on the wall clock.
	path := writePcap(t, []capture.Record{
		beaconRec(0, phy.Channel1),
		beaconRec(100_000, phy.Channel1),
	})
	start := time.Now()
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePcap, Path: path, Speed: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("10x replay of a 100ms trace took %v, want >=10ms (pacing)", elapsed)
	}
	if v := s.View(); v.State != StateDone || v.Accepted != 2 {
		t.Fatalf("paced replay: %+v", v)
	}
}

// endlessRun streams beacons for ever: a scenario source that cannot
// finish before its session is stopped.
type endlessRun struct{}

func (endlessRun) Name() string                   { return "endless" }
func (endlessRun) Params() []experiment.Param     { return nil }
func (endlessRun) Build() (experiment.Run, error) { return endlessRun{}, nil }

func (endlessRun) RunStream(emit func(capture.Record)) {
	for tm := phy.Micros(0); ; tm += 100_000 {
		emit(beaconRec(tm, phy.Channel1))
	}
}

func init() {
	experiment.Register("endless", func(int64, float64) experiment.Scenario { return endlessRun{} })
}

func TestScenarioSessionStop(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourceScenario, Scenario: "endless"},
		// A tiny queue keeps the source blocked on the pump, so Stop
		// interrupts it mid-stream.
		QueueSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let some frames flow, then stop.
	deadline := time.Now().Add(10 * time.Second)
	for s.View().Frames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frames flowed")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if v := s.View(); v.State != StateStopped {
		t.Fatalf("state %q after Stop, want stopped", v.State)
	}
	// Stop is idempotent.
	s.Stop()
}

func TestScenarioSessionRunsToDone(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourceScenario, Scenario: "day", Seed: 1, Scale: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)
	v := s.View()
	if v.State != StateDone || v.Frames == 0 {
		t.Fatalf("scenario run: state=%q frames=%d, want done with frames", v.State, v.Frames)
	}
	if m := s.Metrics(s.win.Capacity()); m.Seconds == 0 || m.UtilizationPct <= 0 {
		t.Fatalf("scenario metrics empty: %+v", m)
	}
}

func TestPushSessionIngest(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := busyQuietTrace(2, 1)
	bad := beaconRec(0, phy.Channel1)
	bad.OrigLen = 0 // fails validation
	accepted, dropped, rejected, err := s.Ingest(append(recs, bad))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(recs) || dropped != 0 || rejected != 1 {
		t.Fatalf("ingest = %d/%d/%d, want %d/0/1", accepted, dropped, rejected, len(recs))
	}
	// The pump keeps the trailing reorder horizon buffered until the
	// stream ends, so live progress may lag slightly behind accepted.
	deadline := time.Now().Add(10 * time.Second)
	for s.View().Frames < int64(len(recs))-64 {
		if time.Now().After(deadline) {
			t.Fatalf("pump drained %d of %d", s.View().Frames, len(recs))
		}
		time.Sleep(time.Millisecond)
	}
	// Stop closes the queue, flushing the held horizon: every
	// accepted frame must reach the analyzer.
	s.Stop()
	v := s.View()
	if v.State != StateStopped {
		t.Fatalf("state %q, want stopped", v.State)
	}
	if v.Frames != int64(len(recs)) {
		t.Fatalf("analyzer saw %d of %d frames after Stop", v.Frames, len(recs))
	}
	if _, _, _, err := s.Ingest(recs); err == nil {
		t.Fatal("ingest after stop succeeded")
	}
}

// TestPushSessionDropsDuplicates: every session drops same-air
// duplicates, with no setting to ask for it. A trace pushed as two
// sniffers' copies analyzes as one.
func TestPushSessionDropsDuplicates(t *testing.T) {
	recs := busyQuietTrace(2, 1)
	s, err := newSession(context.Background(), "s1", Config{
		Source:    SourceConfig{Type: SourcePush},
		QueueSize: 2 * len(recs),
	})
	if err != nil {
		t.Fatal(err)
	}
	var twice []capture.Record
	for _, r := range recs {
		dup := r
		dup.SnifferID = 1
		dup.SignalDBm--
		twice = append(twice, r, dup)
	}
	if accepted, _, _, err := s.Ingest(twice); err != nil || accepted != len(twice) {
		t.Fatalf("ingest: %d of %d accepted, %v", accepted, len(twice), err)
	}
	s.Stop()
	if v := s.View(); v.Frames != int64(len(recs)) || v.Deduped != int64(len(recs)) {
		t.Fatalf("%d records pushed twice: %d frames, %d deduped; want %d and %d",
			len(recs), v.Frames, v.Deduped, len(recs), len(recs))
	}
}

// TestScenarioSessionDedupMatchesDedup: a multi-sniffer scenario
// session drops exactly the duplicates the reference Dedup stage
// finds in the same run.
func TestScenarioSessionDedupMatchesDedup(t *testing.T) {
	const scale = 0.25
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourceScenario, Scenario: "grid9", Seed: 1, Scale: scale},
	})
	if err != nil {
		t.Fatal(err)
	}
	scn, err := experiment.New("grid9", 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	run, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	dd := experiment.NewDedup(func(capture.Record) { kept++ })
	run.RunStream(dd.Add)
	waitDone(t, s)
	v := s.View()
	if dd.Dropped == 0 {
		t.Fatal("grid9 produced no duplicates; the test shows nothing")
	}
	if v.State != StateDone || v.Deduped != dd.Dropped || v.Frames != int64(kept) {
		t.Fatalf("session: state %q, %d deduped, %d frames; Dedup: %d dropped, %d kept",
			v.State, v.Deduped, v.Frames, dd.Dropped, kept)
	}
}

// TestPushSessionRejectsNegativeTime: a record the window cannot
// order — here one stamped −10 s — is rejected, not fed to the
// per-second window (which indexed its ring with the negative
// second and took the daemon down).
func TestPushSessionRejectsNegativeTime(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := beaconRec(-10*phy.MicrosPerSecond, phy.Channel1)
	accepted, _, rejected, err := s.Ingest([]capture.Record{bad, beaconRec(0, phy.Channel1)})
	if err != nil || accepted != 1 || rejected != 1 {
		t.Fatalf("ingest: %d accepted, %d rejected, %v; want 1 and 1", accepted, rejected, err)
	}
	s.Stop()
	if v := s.View(); v.State != StateStopped || v.Rejected != 1 || v.Frames != 1 {
		t.Fatalf("session after a negative time: %+v, want stopped, 1 rejected, 1 frame", v)
	}
}

// TestPcapSessionRejectsNegativeTime: a replayed record stamped −10 s
// (a radiotap TSFT of 2^63 or more) is rejected, and the records
// around it still flow.
func TestPcapSessionRejectsNegativeTime(t *testing.T) {
	path := writePcap(t, []capture.Record{
		beaconRec(0, phy.Channel1),
		beaconRec(-10*phy.MicrosPerSecond, phy.Channel1),
		beaconRec(100_000, phy.Channel1),
	})
	s, err := newSession(context.Background(), "s1", Config{Source: SourceConfig{Type: SourcePcap, Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)
	if v := s.View(); v.State != StateDone || v.Accepted != 2 || v.Rejected != 1 || v.Frames != 2 {
		t.Fatalf("replay with a negative time: %+v, want done, 2 accepted, 1 rejected, 2 frames", v)
	}
}

// TestPushSessionRejectsInvalidChannels: the analyzer keeps state per
// channel, so a record on a channel outside 1..14 is rejected rather
// than growing the session by one channel per distinct value.
func TestPushSessionRejectsInvalidChannels(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []capture.Record
	for _, ch := range []phy.Channel{0, 15, -1, 1_000_000} {
		bad = append(bad, beaconRec(1000, ch))
	}
	for ch := phy.Channel(100); ch < 1100; ch++ {
		bad = append(bad, beaconRec(2000, ch))
	}
	good := []capture.Record{beaconRec(0, phy.Channel1), beaconRec(500, 14)}
	accepted, _, rejected, err := s.Ingest(append(bad, good...))
	if err != nil || accepted != len(good) || rejected != len(bad) {
		t.Fatalf("ingest: %d accepted, %d rejected, %v; want %d and %d", accepted, rejected, err, len(good), len(bad))
	}
	s.Stop()
	if v := s.View(); v.Rejected != int64(len(bad)) || v.Frames != int64(len(good)) || v.Channels > 14 {
		t.Fatalf("session: %d rejected, %d frames, %d channels; want %d, %d and at most 14",
			v.Rejected, v.Frames, v.Channels, len(bad), len(good))
	}
}

// TestPushSessionPendingCap: a push flood with one start time never
// falls a horizon behind its newest end; the Reorder cap bounds the
// session's pending records, and every record still reaches the
// analyzer.
func TestPushSessionPendingCap(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10 * experiment.MaxReorderPending
	batch := make([]capture.Record, 0, DefaultQueueSize)
	for i := 0; i < total; {
		batch = batch[:0]
		for ; i < total && len(batch) < cap(batch); i++ {
			// Distinct beacon timestamps: no record is a duplicate.
			batch = append(batch, rec(1000, dot11.NewBeacon(apAddr, "net", 1, uint64(i), 1), phy.Rate1Mbps, phy.Channel1))
		}
		if accepted, _, _, err := s.Ingest(batch); err != nil || accepted != len(batch) {
			t.Fatalf("ingest: %d of %d accepted, %v", accepted, len(batch), err)
		}
		for len(s.queue) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	s.Stop()
	if v := s.View(); v.Frames != total || v.Deduped != 0 {
		t.Fatalf("%d pushed: %d frames, %d deduped; want all fed", total, v.Frames, v.Deduped)
	}
	if got := s.reorder.MaxPending(); got > experiment.MaxReorderPending {
		t.Fatalf("session held %d records pending, cap %d", got, experiment.MaxReorderPending)
	}
}

// TestPushSessionSparseTraceBoundedMemory: a session's memory is
// bounded by its Window ring, not by trace time. Three beacons
// spanning 10⁶ trace seconds must not allocate per gap second.
func TestPushSessionSparseTraceBoundedMemory(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	const span = 1_000_000 // trace seconds
	recs := []capture.Record{
		beaconRec(0, phy.Channel1),
		beaconRec(span/2*phy.MicrosPerSecond, phy.Channel1),
		beaconRec(span*phy.MicrosPerSecond, phy.Channel1),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if accepted, _, _, err := s.Ingest(recs); err != nil || accepted != len(recs) {
		t.Fatalf("ingest: %d accepted, %v", accepted, err)
	}
	s.Stop()
	runtime.ReadMemStats(&after)
	if v := s.View(); v.Frames != int64(len(recs)) {
		t.Fatalf("analyzer saw %d of %d frames", v.Frames, len(recs))
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Fatalf("a push spanning %d s allocated %.1f MB, want < 16", span, mb)
	}
}

// TestPushSessionRejectsOversizedFrames: a pushed record whose frame
// is longer than its wire length is rejected. A reorder slot keeps
// the buffer of the frame it held for the session's life, so 64
// beacons of 1 MiB stamped orig_len 60 would pin 64 MiB after the
// push drained.
func TestPushSessionRejectsOversizedFrames(t *testing.T) {
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePush},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, frameLen = 64, 1 << 20
	big := make([]byte, frameLen)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs := make([]capture.Record, n)
	for i := range recs {
		recs[i] = beaconRec(phy.Micros(i)*1000, phy.Channel1)
		copy(big, recs[i].Frame)
		recs[i].Frame, recs[i].OrigLen = big, 60
	}
	accepted, _, rejected, err := s.Ingest(recs)
	if err != nil || accepted != 0 || rejected != n {
		t.Fatalf("ingest: %d accepted, %d rejected, %v; want 0 and %d", accepted, rejected, err, n)
	}
	s.Stop()
	recs, big = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
		t.Fatalf("heap grew %d MiB after the push drained, want < 8", grown>>20)
	}
	if v := s.View(); v.Rejected != n || v.Frames != 0 {
		t.Fatalf("session: %d rejected, %d frames; want %d and 0", v.Rejected, v.Frames, n)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	bad := []Config{
		{Source: SourceConfig{Type: "tape"}},
		{Source: SourceConfig{Type: SourceScenario, Scenario: "nope"}},
		{Source: SourceConfig{Type: SourcePcap, Path: ""}},
		{Source: SourceConfig{Type: SourcePcap, Path: "/nonexistent/x.pcap"}},
		{Source: SourceConfig{Type: SourcePush}, WindowSec: -1},
		{Source: SourceConfig{Type: SourcePush}, Alerts: []Rule{{Name: "x", Metric: "nope", Op: ">="}}},
	}
	for i, cfg := range bad {
		if _, err := newSession(context.Background(), "s1", cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPcapSessionBadFile(t *testing.T) {
	path := writePcap(t, nil) // valid but empty pcap is fine…
	s, err := newSession(context.Background(), "s1", Config{
		Source: SourceConfig{Type: SourcePcap, Path: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s)
	if v := s.View(); v.State != StateDone || v.Frames != 0 {
		t.Fatalf("empty pcap: %+v, want done/0 frames", v)
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager(context.Background(), 2)
	s1, err := m.Create(Config{Source: SourceConfig{Type: SourcePush}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Config{Source: SourceConfig{Type: SourcePush}}); err != nil {
		t.Fatal(err)
	}
	// At the cap: third create is rejected with ErrMaxSessions.
	if _, err := m.Create(Config{Source: SourceConfig{Type: SourcePush}}); !errors.Is(err, ErrMaxSessions) {
		t.Fatalf("over-cap create: %v, want ErrMaxSessions", err)
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("%d sessions listed, want 2", got)
	}
	if err := m.Delete(s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(s1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still found: %v", err)
	}
	// Freed capacity admits a new session.
	if _, err := m.Create(Config{Source: SourceConfig{Type: SourcePush}}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	for _, s := range m.List() {
		if v := s.View(); v.State == StateRunning {
			t.Fatalf("session %s still running after Close", s.ID)
		}
	}
	if _, err := m.Create(Config{Source: SourceConfig{Type: SourcePush}}); err == nil {
		t.Fatal("create after Close succeeded")
	}
}
