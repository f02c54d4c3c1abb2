package analysis

import (
	"testing"

	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// nopMetric is a stage that observes nothing.
type nopMetric struct{}

func (nopMetric) OnFrame(*FrameEvent) {}
func (nopMetric) OnSecond(int64)      {}
func (nopMetric) Finalize(*Result)    {}

// trackedMSDUs counts the first attempts a decoder holds: valid slots
// plus overflow entries.
func trackedMSDUs(d *decoder) int {
	n := len(d.overflow)
	for _, s := range d.slots {
		if s.valid {
			n++
		}
	}
	return n
}

// TestAcceptanceDelayStateBounded feeds an Extra-only Analyzer (a live
// session's shape) one transmitter cycling through all 4,096 sequence
// numbers, one data frame every 5 ms and none acknowledged, for 60
// trace-seconds. Each first attempt is dead 2 s on, once a later frame
// would replace it, so the decoder must hold only the MSDUs of the last
// pruneLag (~2.03 s, so ~406 at 200 frames/s), not every sequence
// number it has seen: before pruning it held all 4,096.
func TestAcceptanceDelayStateBounded(t *testing.T) {
	a, err := New(Options{Extra: []Factory{func() Metric { return nopMetric{} }}})
	if err != nil {
		t.Fatal(err)
	}
	const gap = 5000 // µs between frames
	const frames = 60 * 1_000_000 / gap
	limit := int(pruneLag/gap) + 2
	peak := 0
	for i := 0; i < frames; i++ {
		d := dot11.NewData(apAddr, staAddr, apAddr, uint16(i%4096), make([]byte, 200))
		d.FC.ToDS = true
		a.Feed(rec(phy.Micros(i)*gap, d, phy.Rate11Mbps))
		s := a.shards[phy.Channel1]
		n := trackedMSDUs(s)
		peak = max(peak, n)
		if n > limit {
			t.Fatalf("after %d frames (%.2f s) the decoder tracks %d MSDUs, want at most %d",
				i+1, float64(i*gap)/1e6, n, limit)
		}
		if logged := len(s.spills) - s.spillHead; logged > 2*limit {
			t.Fatalf("after %d frames the spill log holds %d entries, want at most %d", i+1, logged, 2*limit)
		}
	}
	if peak < limit-4 {
		t.Fatalf("peak %d MSDUs tracked: the stream never filled the reuse window (limit %d)", peak, limit)
	}
}
