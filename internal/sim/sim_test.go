package sim

import (
	"testing"

	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
)

// testNet builds a one-AP network with n stations in a small room so
// everyone senses everyone (no hidden terminals).
func testNet(seed int64, n int, f rate.Factory) (*Network, *Node, []*Node) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Env.ShadowingSigmaDB = 0 // deterministic radio for unit tests
	net := New(cfg)
	ap := net.AddAP("ap0", Position{X: 10, Y: 10}, phy.Channel1)
	var stas []*Node
	for i := 0; i < n; i++ {
		st := net.AddStation("sta", Position{X: 5 + float64(i%5)*2, Y: 5 + float64(i/5)*2}, ap, f)
		stas = append(stas, st)
	}
	return net, ap, stas
}

func TestPositionDistance(t *testing.T) {
	if d := (Position{0, 0}).Distance(Position{3, 4}); d != 5 {
		t.Errorf("distance = %v", d)
	}
}

func TestSingleFrameDelivery(t *testing.T) {
	net, ap, stas := testNet(1, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	st := stas[0]
	if !st.SendData(ap.Addr, 500) {
		t.Fatal("SendData refused")
	}
	net.RunFor(phy.MicrosPerSecond)
	if st.Acked != 1 {
		t.Errorf("Acked = %d, want 1", st.Acked)
	}
	if net.Stats.ACKSent != 1 {
		t.Errorf("ACKSent = %d, want 1", net.Stats.ACKSent)
	}
	if net.Stats.DataSent < 1 {
		t.Errorf("DataSent = %d", net.Stats.DataSent)
	}
}

func TestDownlinkDelivery(t *testing.T) {
	net, ap, stas := testNet(2, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	if !ap.SendData(stas[0].Addr, 800) {
		t.Fatal("AP SendData refused")
	}
	net.RunFor(phy.MicrosPerSecond)
	if ap.Acked != 1 {
		t.Errorf("AP Acked = %d, want 1", ap.Acked)
	}
}

func TestQueueLimit(t *testing.T) {
	net, ap, stas := testNet(3, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	st := stas[0]
	accepted := 0
	for i := 0; i < net.cfg.QueueLimit+10; i++ {
		if st.SendData(ap.Addr, 100) {
			accepted++
		}
	}
	if accepted != net.cfg.QueueLimit {
		t.Errorf("accepted %d, want %d", accepted, net.cfg.QueueLimit)
	}
	if net.Stats.QueueDrops != 10 {
		t.Errorf("QueueDrops = %d, want 10", net.Stats.QueueDrops)
	}
}

func TestNegativeSizeRefused(t *testing.T) {
	_, ap, stas := testNet(4, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	if stas[0].SendData(ap.Addr, -1) {
		t.Error("negative size must be refused")
	}
}

func TestDisassociatedStationRefusesTraffic(t *testing.T) {
	net, ap, stas := testNet(5, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	net.Disassociate(stas[0])
	if stas[0].SendData(ap.Addr, 100) {
		t.Error("disassociated station must refuse traffic")
	}
	if net.AssociatedTotal() != 0 {
		t.Errorf("AssociatedTotal = %d", net.AssociatedTotal())
	}
	// Double disassociate is a no-op.
	net.Disassociate(stas[0])
	if net.AssociatedCount(ap) != 0 {
		t.Errorf("AssociatedCount = %d", net.AssociatedCount(ap))
	}
}

func TestReassociate(t *testing.T) {
	net, _, stas := testNet(6, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	ap2 := net.AddAP("ap2", Position{X: 20, Y: 20}, phy.Channel6)
	net.Reassociate(stas[0], ap2)
	if stas[0].AP != ap2 || stas[0].Channel != phy.Channel6 {
		t.Error("reassociation did not move the station")
	}
	if net.AssociatedCount(ap2) != 1 {
		t.Error("ap2 count")
	}
	// Traffic still flows on the new channel.
	stas[0].SendData(ap2.Addr, 300)
	net.RunFor(phy.MicrosPerSecond)
	if stas[0].Acked != 1 {
		t.Errorf("Acked = %d after reassociation", stas[0].Acked)
	}
}

func TestBeaconsEmitted(t *testing.T) {
	net, _, _ := testNet(7, 0, rate.NewFixedFactory(phy.Rate11Mbps))
	net.RunFor(phy.MicrosPerSecond)
	// ~10 beacons in a second (102.4 ms interval).
	if net.Stats.BeaconsSent < 8 || net.Stats.BeaconsSent > 12 {
		t.Errorf("BeaconsSent = %d, want ≈10", net.Stats.BeaconsSent)
	}
}

// TestBeaconsDoNotAllocate checks that steady-state beacon emission
// reuses pooled frames: once each AP's first beacons have gone out,
// further seconds of beaconing allocate nothing.
func TestBeaconsDoNotAllocate(t *testing.T) {
	net, _, _ := testNet(7, 0, rate.NewFixedFactory(phy.Rate11Mbps))
	net.AddAP("ap1", Position{X: 12, Y: 10}, phy.Channel1)
	net.RunFor(phy.MicrosPerSecond)
	sent := net.Stats.BeaconsSent
	if n := testing.AllocsPerRun(5, func() { net.RunFor(phy.MicrosPerSecond) }); n != 0 {
		t.Errorf("a second of beacons allocates %v times", n)
	}
	if net.Stats.BeaconsSent-sent < 5*2*8 {
		t.Errorf("only %d beacons in the measured seconds", net.Stats.BeaconsSent-sent)
	}
}

func TestRetryFlagSetOnRetransmission(t *testing.T) {
	// Two stations far from each other but both near the AP: hidden
	// terminals. Their frames collide at the AP, forcing retries.
	cfg := DefaultConfig()
	cfg.Seed = 8
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	ap := net.AddAP("ap", Position{X: 50, Y: 50}, phy.Channel1)
	a := net.AddStation("a", Position{X: 5, Y: 50}, ap, rate.NewFixedFactory(phy.Rate11Mbps))
	b := net.AddStation("b", Position{X: 95, Y: 50}, ap, rate.NewFixedFactory(phy.Rate11Mbps))

	var sawRetry bool
	net.AddTap(tapFunc(func(obs TxObservation) {
		p, err := dot11.Parse(obs.Frame)
		if err == nil && p.FC.Retry {
			sawRetry = true
		}
	}))
	for i := 0; i < 200; i++ {
		a.SendData(ap.Addr, 1000)
		b.SendData(ap.Addr, 1000)
	}
	net.RunFor(3 * phy.MicrosPerSecond)
	if net.Stats.Collisions == 0 {
		t.Error("hidden terminals should collide")
	}
	if !sawRetry {
		t.Error("collisions should produce Retry-flagged retransmissions")
	}
}

// tapFunc adapts a func to the Tap interface.
type tapFunc func(TxObservation)

func (f tapFunc) ObserveTransmission(o TxObservation) { f(o) }

func TestRTSCTSExchange(t *testing.T) {
	net, ap, stas := testNet(9, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	st := stas[0]
	st.UseRTS = true
	st.SendData(ap.Addr, 1200)
	net.RunFor(phy.MicrosPerSecond)
	if net.Stats.RTSSent < 1 {
		t.Error("no RTS sent")
	}
	if net.Stats.CTSSent < 1 {
		t.Error("no CTS sent")
	}
	if st.Acked != 1 {
		t.Errorf("Acked = %d, want 1 (via RTS/CTS)", st.Acked)
	}
}

func TestFrameSequenceObservedOnAir(t *testing.T) {
	// A full RTS→CTS→DATA→ACK cycle must appear on the air in order.
	net, ap, stas := testNet(10, 1, rate.NewFixedFactory(phy.Rate11Mbps))
	st := stas[0]
	st.UseRTS = true
	var kinds []string
	net.AddTap(tapFunc(func(obs TxObservation) {
		p, err := dot11.Parse(obs.Frame)
		if err != nil {
			return
		}
		switch p.Frame.(type) {
		case *dot11.RTS:
			kinds = append(kinds, "rts")
		case *dot11.CTS:
			kinds = append(kinds, "cts")
		case *dot11.Data:
			kinds = append(kinds, "data")
		case *dot11.ACK:
			kinds = append(kinds, "ack")
		}
	}))
	st.SendData(ap.Addr, 900)
	net.RunFor(phy.MicrosPerSecond / 2)
	// Filter out beacons; look for the exchange.
	want := []string{"rts", "cts", "data", "ack"}
	found := 0
	for _, k := range kinds {
		if found < len(want) && k == want[found] {
			found++
		}
	}
	if found != len(want) {
		t.Errorf("air sequence %v missing full RTS/CTS cycle", kinds)
	}
}

func TestManyStationsAllDeliver(t *testing.T) {
	net, ap, stas := testNet(11, 10, rate.NewARFFactory())
	for _, st := range stas {
		for i := 0; i < 5; i++ {
			st.SendData(ap.Addr, 600)
		}
	}
	net.RunFor(3 * phy.MicrosPerSecond)
	total := int64(0)
	for _, st := range stas {
		total += st.Acked
	}
	// With contention some frames may drop, but the vast majority of
	// 50 frames must get through in 3 seconds.
	if total < 45 {
		t.Errorf("delivered %d/50 frames", total)
	}
}

func TestCollisionsUnderContention(t *testing.T) {
	net, ap, stas := testNet(12, 20, rate.NewFixedFactory(phy.Rate11Mbps))
	for _, st := range stas {
		for i := 0; i < 20; i++ {
			st.SendData(ap.Addr, 800)
		}
	}
	net.RunFor(5 * phy.MicrosPerSecond)
	if net.Stats.Collisions == 0 {
		t.Error("20 saturated stations must produce collisions")
	}
	if net.Stats.DataSent <= net.Stats.DataAcked {
		t.Error("some transmissions must have failed (retries)")
	}
}

func TestDropAfterRetryLimit(t *testing.T) {
	// A station whose AP is unreachable (far beyond radio range) must
	// drop every frame after the retry limit.
	cfg := DefaultConfig()
	cfg.Seed = 13
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	ap := net.AddAP("ap", Position{X: 10000, Y: 10000}, phy.Channel1)
	st := net.AddStation("st", Position{0, 0}, ap, rate.NewFixedFactory(phy.Rate11Mbps))
	st.SendData(ap.Addr, 500)
	net.RunFor(2 * phy.MicrosPerSecond)
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
	if st.Acked != 0 {
		t.Error("unreachable AP cannot ack")
	}
	// Attempts = 1 + ShortRetryLimit.
	if st.Sent != int64(1+cfg.ShortRetryLimit) {
		t.Errorf("Sent = %d, want %d", st.Sent, 1+cfg.ShortRetryLimit)
	}
}

func TestARFFallsUnderCollisions(t *testing.T) {
	// Saturated contention with ARF: collision-driven failures must
	// push some data transmissions below 11 Mbps at some point.
	net, ap, stas := testNet(14, 15, rate.NewARFFactory())
	var lowRate bool
	net.AddTap(tapFunc(func(o TxObservation) {
		p, err := dot11.Parse(o.Frame)
		if err != nil {
			return
		}
		if _, ok := p.Frame.(*dot11.Data); ok && o.Rate != phy.Rate11Mbps {
			lowRate = true
		}
	}))
	for _, st := range stas {
		net.StartTraffic(st, ProfileBulk, 8)
	}
	net.RunFor(10 * phy.MicrosPerSecond)
	_ = ap
	if net.Stats.Collisions == 0 {
		t.Error("saturated contention must produce collisions")
	}
	if !lowRate {
		t.Error("ARF never dropped any data frame below 11 Mbps under heavy contention")
	}
}

func TestChannelIsolation(t *testing.T) {
	// Stations on channel 1 must not collide with stations on 6.
	cfg := DefaultConfig()
	cfg.Seed = 15
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	ap1 := net.AddAP("ap1", Position{10, 10}, phy.Channel1)
	ap6 := net.AddAP("ap6", Position{12, 10}, phy.Channel6)
	s1 := net.AddStation("s1", Position{8, 10}, ap1, rate.NewFixedFactory(phy.Rate11Mbps))
	s6 := net.AddStation("s6", Position{14, 10}, ap6, rate.NewFixedFactory(phy.Rate11Mbps))
	for i := 0; i < 40; i++ {
		s1.SendData(ap1.Addr, 1400)
		s6.SendData(ap6.Addr, 1400)
	}
	net.RunFor(3 * phy.MicrosPerSecond)
	if s1.Acked != 40 || s6.Acked != 40 {
		t.Errorf("cross-channel interference? acked %d/%d", s1.Acked, s6.Acked)
	}
}

func TestTapObservations(t *testing.T) {
	net, ap, stas := testNet(16, 1, rate.NewFixedFactory(phy.Rate5_5Mbps))
	var obs []TxObservation
	net.AddTap(tapFunc(func(o TxObservation) {
		// Frame and Overlapped alias simulator-owned buffers; a Tap
		// that retains an observation must copy them.
		o.Frame = append([]byte(nil), o.Frame...)
		o.Overlapped = append([]TxRef(nil), o.Overlapped...)
		obs = append(obs, o)
	}))
	stas[0].SendData(ap.Addr, 500)
	net.RunFor(phy.MicrosPerSecond / 10)
	if len(obs) == 0 {
		t.Fatal("tap saw nothing")
	}
	var sawData bool
	for _, o := range obs {
		if o.End <= o.Time {
			t.Error("observation must have positive airtime")
		}
		if o.Channel != phy.Channel1 {
			t.Errorf("channel = %v", o.Channel)
		}
		p, err := dot11.Parse(o.Frame)
		if err != nil {
			t.Fatalf("tap frame must parse: %v", err)
		}
		if d, ok := p.Frame.(*dot11.Data); ok {
			sawData = true
			if o.Rate != phy.Rate5_5Mbps {
				t.Errorf("data rate = %v, want 5.5", o.Rate)
			}
			if o.WireLen != d.WireLen() {
				t.Errorf("WireLen %d != %d", o.WireLen, d.WireLen())
			}
		}
	}
	if !sawData {
		t.Error("no data frame observed")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		net, ap, stas := testNet(42, 8, rate.NewARFFactory())
		for _, st := range stas {
			net.StartTraffic(st, ProfileWeb, 2)
		}
		_ = ap
		net.RunFor(3 * phy.MicrosPerSecond)
		return net.Stats.DataSent, net.Stats.DataAcked, net.Stats.Collisions
	}
	s1, a1, c1 := run()
	s2, a2, c2 := run()
	if s1 != s2 || a1 != a2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", s1, a1, c1, s2, a2, c2)
	}
	if s1 == 0 {
		t.Error("no traffic generated")
	}
}

func TestTrafficGenerators(t *testing.T) {
	net, _, stas := testNet(17, 4, rate.NewARFFactory())
	gens := make([]*Generator, len(stas))
	for i, st := range stas {
		gens[i] = net.StartTraffic(st, ProfileVoice, 1)
	}
	net.RunFor(2 * phy.MicrosPerSecond)
	if net.Stats.DataSent == 0 {
		t.Fatal("generators produced no traffic")
	}
	sent := net.Stats.DataSent
	for _, g := range gens {
		g.Stop()
	}
	// One profile interval later, traffic must have ceased.
	net.RunFor(phy.MicrosPerSecond)
	idle := net.Stats.DataSent
	net.RunFor(phy.MicrosPerSecond)
	if net.Stats.DataSent > idle+5 {
		t.Errorf("traffic kept flowing after Stop: %d → %d", sent, net.Stats.DataSent)
	}
}

func TestPickProfile(t *testing.T) {
	net := New(DefaultConfig())
	mix := DefaultMix()
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[net.PickProfile(mix).Name]++
	}
	for _, w := range mix {
		if counts[w.Profile.Name] == 0 {
			t.Errorf("profile %s never picked", w.Profile.Name)
		}
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{{100, "S"}, {400, "S"}, {401, "M"}, {800, "M"}, {801, "L"}, {1200, "L"}, {1201, "XL"}, {1500, "XL"}}
	for _, c := range cases {
		if got := SizeClass(c.n); got != c.want {
			t.Errorf("SizeClass(%d) = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestControllerChannelSwitch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 18
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	// Two APs on channel 1 (one idle), none on 6/11: heavy imbalance.
	apBusy := net.AddAP("busy", Position{10, 10}, phy.Channel1)
	apIdle := net.AddAP("idle", Position{40, 40}, phy.Channel1)
	var stas []*Node
	for i := 0; i < 6; i++ {
		st := net.AddStation("s", Position{8 + float64(i), 10}, apBusy, rate.NewFixedFactory(phy.Rate11Mbps))
		net.StartTraffic(st, ProfileBulk, 4)
		stas = append(stas, st)
	}
	ctl := net.NewController([]*Node{apBusy, apIdle})
	ctl.Start()
	net.RunFor(20 * phy.MicrosPerSecond)
	if net.Stats.ChannelSwitch == 0 {
		t.Error("controller never rebalanced channels")
	}
	ctl.Stop()
}

func TestControllerClientBalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 19
	net := New(cfg)
	ap1 := net.AddAP("ap1", Position{10, 10}, phy.Channel1)
	ap2 := net.AddAP("ap2", Position{12, 10}, phy.Channel6)
	for i := 0; i < 12; i++ {
		net.AddStation("s", Position{10, 11}, ap1, rate.NewFixedFactory(phy.Rate11Mbps))
	}
	ctl := net.NewController([]*Node{ap1, ap2})
	ctl.MaxPerAP = 8
	ctl.Start()
	net.RunFor(12 * phy.MicrosPerSecond)
	if net.AssociatedCount(ap1) > 8 {
		t.Errorf("ap1 still has %d clients", net.AssociatedCount(ap1))
	}
	if net.AssociatedCount(ap2) == 0 {
		t.Error("ap2 received no clients")
	}
}

func TestNetworkString(t *testing.T) {
	net, _, _ := testNet(20, 3, rate.NewARFFactory())
	if net.String() == "" {
		t.Error("String empty")
	}
}

func TestAssociatedTotal(t *testing.T) {
	net, _, stas := testNet(21, 5, rate.NewARFFactory())
	if net.AssociatedTotal() != 5 {
		t.Errorf("AssociatedTotal = %d", net.AssociatedTotal())
	}
	net.Disassociate(stas[0])
	net.Disassociate(stas[1])
	if net.AssociatedTotal() != 3 {
		t.Errorf("AssociatedTotal = %d after leave", net.AssociatedTotal())
	}
}

func TestNAVProtectsRTSExchange(t *testing.T) {
	// A third station overhearing RTS must defer (NAV), so the
	// protected exchange completes without collision from it.
	net, ap, stas := testNet(22, 3, rate.NewFixedFactory(phy.Rate11Mbps))
	rtsUser := stas[0]
	rtsUser.UseRTS = true
	rtsUser.SendData(ap.Addr, 1400)
	// Competing traffic enqueued at the same moment.
	stas[1].SendData(ap.Addr, 1400)
	stas[2].SendData(ap.Addr, 1400)
	net.RunFor(phy.MicrosPerSecond)
	if rtsUser.Acked != 1 {
		t.Errorf("RTS-protected frame not delivered (acked=%d)", rtsUser.Acked)
	}
}

func TestApplyTPC(t *testing.T) {
	net, ap, stas := testNet(30, 4, rate.NewSNRFactory())
	_ = ap
	before := make([]float64, len(stas))
	for i, st := range stas {
		before[i] = st.TxPower
	}
	adjusted := net.ApplyTPC(25)
	if adjusted == 0 {
		t.Fatal("TPC adjusted nothing")
	}
	for _, st := range stas {
		snr := net.SNRAtAP(st)
		// Within bounds, SNR should land near the target.
		if st.TxPower > TPCMinPowerDBm && st.TxPower < TPCMaxPowerDBm {
			if snr < 24.9 || snr > 25.1 {
				t.Errorf("station SNR = %v, want ≈25", snr)
			}
		}
		if st.TxPower < TPCMinPowerDBm || st.TxPower > TPCMaxPowerDBm {
			t.Errorf("power %v outside bounds", st.TxPower)
		}
	}
	// Power went down for close-in stations (default 15 dBm is far
	// more than needed at a few meters).
	lowered := false
	for i, st := range stas {
		if st.TxPower < before[i] {
			lowered = true
		}
	}
	if !lowered {
		t.Error("TPC should lower power for nearby stations")
	}
	// Traffic still flows after the adjustment.
	stas[0].SendData(ap.Addr, 400)
	net.RunFor(phy.MicrosPerSecond)
	if stas[0].Acked != 1 {
		t.Error("post-TPC delivery failed")
	}
}

func TestMeanTxPower(t *testing.T) {
	net, _, stas := testNet(31, 2, rate.NewARFFactory())
	stas[0].TxPower = 10
	stas[1].TxPower = 20
	if got := net.MeanTxPower(); got != 15 {
		t.Errorf("MeanTxPower = %v", got)
	}
	empty := New(DefaultConfig())
	if empty.MeanTxPower() != 0 {
		t.Error("empty network mean power must be 0")
	}
}

func TestSNRAtAPUnassociated(t *testing.T) {
	net, _, _ := testNet(32, 0, rate.NewARFFactory())
	orphan := net.AddAP("x", Position{0, 0}, phy.Channel1)
	if net.SNRAtAP(orphan) != 0 {
		t.Error("AP has no AP; SNR must be 0")
	}
}
