package analysis

import (
	"sync"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
)

// buildSnapshotTrace returns a small multi-second, multi-channel trace
// including one unparseable record.
func buildSnapshotTrace() []capture.Record {
	var recs []capture.Record
	t := phy.Micros(0)
	for sec := 0; sec < 5; sec++ {
		t = phy.Micros(sec) * phy.MicrosPerSecond
		for i := 0; i < 20; i++ {
			chunk, end := dataAck(t, staAddr, 500, phy.Rate11Mbps, uint16(sec*100+i), false)
			recs = append(recs, chunk...)
			t = end + 100
		}
		recs = append(recs, beaconRec(t))
	}
	// One record whose MAC frame cannot parse (too short).
	recs = append(recs, capture.Record{
		Time: t + 50, Rate: phy.Rate1Mbps, Channel: phy.Channel1,
		OrigLen: 4, Frame: []byte{0xff, 0xff},
	})
	// A second channel, so the shard counter moves past 1.
	b := beaconRec(t + 100)
	b.Channel = phy.Channel6
	recs = append(recs, b)
	return recs
}

// TestSnapshotConcurrentWithFeed drives Feed on one goroutine while
// another polls Snapshot continuously — the monitor layer's exact
// access pattern. Under -race this proves the snapshot surface is
// safe to read mid-stream; the final snapshot must agree with the
// Result totals.
func TestSnapshotConcurrentWithFeed(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := buildSnapshotTrace()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Snapshot
		for {
			s := a.Snapshot()
			// Progress counters must be monotonic.
			if s.Frames < last.Frames || s.ParseErrors < last.ParseErrors ||
				s.Channels < last.Channels || s.LastTime < last.LastTime {
				t.Errorf("snapshot went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	a.FeedAll(recs)
	r := a.Result()
	close(stop)
	wg.Wait()

	s := a.Snapshot()
	if s.Frames != r.TotalFrames {
		t.Errorf("Snapshot.Frames = %d, Result.TotalFrames = %d", s.Frames, r.TotalFrames)
	}
	if s.ParseErrors != r.ParseErrors || s.ParseErrors != 1 {
		t.Errorf("Snapshot.ParseErrors = %d, Result.ParseErrors = %d, want 1", s.ParseErrors, r.ParseErrors)
	}
	if s.Channels != 2 {
		t.Errorf("Snapshot.Channels = %d, want 2", s.Channels)
	}
	if want := recs[len(recs)-1].Time; s.LastTime != want {
		t.Errorf("Snapshot.LastTime = %d, want %d", s.LastTime, want)
	}
}

// TestOptionsExtra proves Options.Extra stages are instantiated per
// shard and observe the same annotated events as registered stages.
func TestOptionsExtra(t *testing.T) {
	type tap struct {
		frames  int64
		seconds int64
	}
	var mu sync.Mutex
	taps := 0
	total := &tap{}
	a, err := New(Options{
		Metrics: []string{"util"},
		Extra: []Factory{func() Metric {
			mu.Lock()
			taps++
			mu.Unlock()
			return &funcMetric{
				onFrame:  func(*FrameEvent) { total.frames++ },
				onSecond: func(int64) { total.seconds++ },
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := buildSnapshotTrace()
	a.FeedAll(recs)
	r := a.Result()
	if taps != 2 {
		t.Errorf("extra factory invoked %d times, want once per shard (2)", taps)
	}
	if total.frames != r.TotalFrames {
		t.Errorf("extra stage saw %d frames, result has %d", total.frames, r.TotalFrames)
	}
	if total.seconds == 0 {
		t.Error("extra stage saw no OnSecond ticks")
	}
}

// funcMetric adapts closures to the Metric interface for tests.
type funcMetric struct {
	onFrame  func(*FrameEvent)
	onSecond func(int64)
}

func (m *funcMetric) OnFrame(ev *FrameEvent) { m.onFrame(ev) }
func (m *funcMetric) OnSecond(sec int64)     { m.onSecond(sec) }
func (m *funcMetric) Finalize(*Result)       {}
