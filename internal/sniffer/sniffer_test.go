package sniffer

import (
	"math"
	"testing"

	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
)

// buildScenario runs a small saturated cell with one sniffer attached
// and returns the sniffer.
func buildScenario(t *testing.T, snifferPos sim.Position, maxFPS int) (*Sniffer, *sim.Network) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Seed = 99
	net := sim.New(cfg)
	ap := net.AddAP("ap", sim.Position{X: 10, Y: 10}, phy.Channel1)
	for i := 0; i < 8; i++ {
		st := net.AddStation("s", sim.Position{X: 6 + float64(i), Y: 10}, ap, rate.NewARFFactory())
		net.StartTraffic(st, sim.ProfileWeb, 4)
	}
	sc := DefaultConfig("A", 1, snifferPos, phy.Channel1)
	if maxFPS > 0 {
		sc.MaxFramesPerSec = maxFPS
	}
	sn := New(sc)
	net.AddTap(sn)
	net.RunFor(5 * phy.MicrosPerSecond)
	return sn, net
}

func TestSnifferCapturesNearbyTraffic(t *testing.T) {
	sn, net := buildScenario(t, sim.Position{X: 10, Y: 12}, 0)
	if sn.Seen == 0 {
		t.Fatal("sniffer saw no transmissions")
	}
	if sn.Captured == 0 {
		t.Fatal("sniffer captured nothing")
	}
	if net.Stats.DataSent == 0 {
		t.Fatal("no traffic")
	}
	// A nearby sniffer should capture the vast majority.
	if frac := sn.UnrecordedTruth(); frac > 0.3 {
		t.Errorf("nearby sniffer missed %.0f%% of frames", frac*100)
	}
	// Captured frames must parse as 802.11 and carry sane metadata.
	for _, r := range sn.Records()[:10] {
		if _, err := dot11.Parse(r.Frame); err != nil {
			t.Fatalf("captured frame does not parse: %v", err)
		}
		if r.Channel != phy.Channel1 || !r.Rate.Valid() {
			t.Errorf("bad metadata: %+v", r)
		}
		if r.SNR() <= 0 {
			t.Errorf("non-positive SNR: %v", r.SNR())
		}
	}
}

func TestSnifferChannelFilter(t *testing.T) {
	cfg := sim.DefaultConfig()
	net := sim.New(cfg)
	ap := net.AddAP("ap", sim.Position{X: 10, Y: 10}, phy.Channel6)
	st := net.AddStation("s", sim.Position{X: 8, Y: 10}, ap, rate.NewARFFactory())
	sn := New(DefaultConfig("A", 1, sim.Position{X: 10, Y: 11}, phy.Channel1)) // wrong channel
	net.AddTap(sn)
	st.SendData(ap.Addr, 500)
	net.RunFor(phy.MicrosPerSecond)
	if sn.Seen != 0 || sn.Captured != 0 {
		t.Errorf("sniffer on channel 1 saw channel-6 traffic: seen=%d", sn.Seen)
	}
}

func TestSnifferHiddenTerminalLoss(t *testing.T) {
	// Sniffer placed far from the cell: most frames below sensitivity.
	sn, _ := buildScenario(t, sim.Position{X: 1500, Y: 1500}, 0)
	if sn.LostHidden == 0 {
		t.Error("distant sniffer must lose frames to range")
	}
	if sn.UnrecordedTruth() < 0.5 {
		t.Errorf("distant sniffer captured %.0f%%, expected mostly lost",
			100*(1-sn.UnrecordedTruth()))
	}
}

func TestSnifferOverloadLoss(t *testing.T) {
	// Absurdly low pipeline budget forces overload drops.
	sn, _ := buildScenario(t, sim.Position{X: 10, Y: 12}, 10)
	if sn.LostOverload == 0 {
		t.Error("overloaded sniffer must drop frames")
	}
}

func TestSnifferSnapLen(t *testing.T) {
	sn, _ := buildScenario(t, sim.Position{X: 10, Y: 12}, 0)
	sawTruncated := false
	for _, r := range sn.Records() {
		if len(r.Frame) > 250 {
			t.Fatalf("frame exceeds snap length: %d", len(r.Frame))
		}
		if r.OrigLen > 250 && len(r.Frame) == 250 {
			sawTruncated = true
		}
	}
	if !sawTruncated {
		t.Error("no snap-truncated frames observed (web frames exceed 250B)")
	}
}

func TestSnifferLossAccounting(t *testing.T) {
	sn, _ := buildScenario(t, sim.Position{X: 10, Y: 12}, 0)
	total := sn.Captured + sn.LostHidden + sn.LostCollision + sn.LostBitError + sn.LostOverload
	if total != sn.Seen {
		t.Errorf("loss accounting: %d captured+lost != %d seen", total, sn.Seen)
	}
}

func TestSnifferDefaults(t *testing.T) {
	s := New(Config{Name: "x", Channel: phy.Channel1})
	if s.Config().SnapLen != 250 {
		t.Error("snap len default")
	}
	if s.Config().MaxFramesPerSec != 1200 {
		t.Error("fps default")
	}
	if s.UnrecordedTruth() != 0 {
		t.Error("empty sniffer unrecorded truth must be 0")
	}
}

func TestClampDBm(t *testing.T) {
	if clampDBm(300) != 127 || clampDBm(-300) != -128 || clampDBm(-55) != -55 {
		t.Error("clamp broken")
	}
}

// TestSnifferUsesNetworkCaptureThreshold decides the same overlapped
// frame under two network capture thresholds: at ~7 dB SINR an 11 Mbps
// frame collides against the default 10 dB base and is captured
// against a 5 dB base.
func TestSnifferUsesNetworkCaptureThreshold(t *testing.T) {
	env := phy.DefaultEnvironment()
	env.ShadowingSigmaDB = 0
	from := sim.Position{X: 10, Y: 0}
	frame := dot11.NewData(dot11.AddrFromUint64(1), dot11.AddrFromUint64(2), dot11.AddrFromUint64(1), 1, make([]byte, 100))
	// The interferer sits where its power at the sniffer is 7 dB
	// below the transmitter's: distance ratio 10^(7/(10·n)).
	interfAt := sim.Position{X: 10 * math.Pow(10, 7/(10*env.PathLossExponent)), Y: 0}
	observe := func(baseDB float64) *Sniffer {
		sc := DefaultConfig("A", 1, sim.Position{}, phy.Channel1)
		sc.Env = env
		sn := New(sc)
		sn.ObserveTransmission(sim.TxObservation{
			Channel: phy.Channel1, Rate: phy.Rate11Mbps,
			Frame: frame.AppendTo(nil), WireLen: frame.WireLen(),
			FromID: 0, FromPos: from, TxPowerDBm: phy.DefaultTxPowerDBm,
			Overlapped:         []sim.TxRef{{FromID: 1, FromPos: interfAt, TxPowerDBm: phy.DefaultTxPowerDBm}},
			CaptureThresholdDB: baseDB,
		})
		return sn
	}
	if sn := observe(10); sn.LostCollision != 1 {
		t.Fatalf("10 dB base: want a collision loss, got collision=%d captured=%d", sn.LostCollision, sn.Captured)
	}
	if sn := observe(5); sn.LostCollision != 0 || sn.Captured != 1 {
		t.Fatalf("5 dB base: want the frame captured, got collision=%d captured=%d", sn.LostCollision, sn.Captured)
	}
}
