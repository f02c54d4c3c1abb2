// Package core holds the unit tests of the paper's core trace analysis
// — Table 2 delays, the CBT and utilization equations, the missing-frame
// estimators of Equation 1, size/rate categories and congestion classes —
// written against package analysis, which implements them. It has no
// non-test code.
package core

import (
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
	"wlan80211/internal/stats"
)

var (
	apAddr  = dot11.AddrFromUint64(0x01)
	staAddr = dot11.AddrFromUint64(0x02)
	sta2    = dot11.AddrFromUint64(0x03)
)

// rec wraps a frame into a capture record.
func rec(t phy.Micros, f dot11.Frame, r phy.Rate) capture.Record {
	wire := f.AppendTo(nil)
	return capture.Record{
		Time: t, Rate: r, Channel: phy.Channel1,
		SignalDBm: -50, NoiseDBm: -95,
		OrigLen: f.WireLen(), Frame: wire,
	}
}

// dataAck builds a DATA(+ACK) exchange starting at t and returns the
// records plus the time just after the ACK.
func dataAck(t phy.Micros, ta dot11.Addr, size int, r phy.Rate, seq uint16, retry bool) ([]capture.Record, phy.Micros) {
	d := dot11.NewData(apAddr, ta, apAddr, seq, make([]byte, size))
	d.FC.ToDS = true
	d.FC.Retry = retry
	recs := []capture.Record{rec(t, d, r)}
	end := t + phy.Airtime(d.WireLen(), r)
	ack := dot11.NewACK(ta)
	recs = append(recs, rec(end+phy.SIFS, ack, phy.Rate1Mbps))
	return recs, end + phy.SIFS + phy.Airtime(14, phy.Rate1Mbps)
}

func beaconRec(t phy.Micros) capture.Record {
	b := dot11.NewBeacon(apAddr, "net", 1, uint64(t), 1)
	return rec(t, b, phy.Rate1Mbps)
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	r := analysis.Analyze(nil)
	if r.TotalFrames != 0 || len(r.PerChannel) != 0 {
		t.Error("empty trace must produce empty result")
	}
	if r.Unrecorded.Percent() != 0 {
		t.Error("empty unrecorded percent")
	}
}

func TestAnalyzeDataAckExchange(t *testing.T) {
	var recs []capture.Record
	recs = append(recs, beaconRec(1000)) // discover the AP
	more, _ := dataAck(200_000, staAddr, 500, phy.Rate11Mbps, 7, false)
	recs = append(recs, more...)
	r := analysis.Analyze(recs)

	if r.TotalFrames != 3 {
		t.Fatalf("TotalFrames = %d", r.TotalFrames)
	}
	if r.ParseErrors != 0 {
		t.Fatalf("ParseErrors = %d", r.ParseErrors)
	}
	// No unrecorded frames in a complete exchange.
	if r.Unrecorded.Total() != 0 {
		t.Errorf("Unrecorded = %+v", r.Unrecorded)
	}
	secs := r.PerChannel[phy.Channel1]
	if len(secs) != 1 {
		t.Fatalf("seconds = %d", len(secs))
	}
	s := secs[0]
	if s.Data != 1 || s.ACK != 1 || s.Beacon != 1 {
		t.Errorf("counts: %+v", s)
	}
	// CBT = beacon (354) + data (50 + 192 + ceil(8*(34+528)/11)) + ack (314).
	wantData := analysis.CBTData(528, phy.Rate11Mbps)
	want := analysis.CBTBeacon() + wantData + analysis.CBTACK()
	if s.CBT != want {
		t.Errorf("CBT = %d, want %d", s.CBT, want)
	}
	// Goodput counts all three frames (beacon+ack control, data acked).
	if s.GoodputMbps <= 0 || s.GoodputMbps > s.ThroughputMbps {
		t.Errorf("goodput %v vs throughput %v", s.GoodputMbps, s.ThroughputMbps)
	}
	// First-attempt ack at 11 Mbps recorded at this second's utilization.
	u := s.Utilization
	if m, n := r.FirstAckPerRate[3].Mean(u); n != 1 || m != 1 {
		t.Errorf("FirstAckPerRate[11] at u=%d: %v,%d", u, m, n)
	}
	// Acceptance delay present for S-11.
	ci, _ := analysis.CategoryOf(528, phy.Rate11Mbps).Index()
	if _, n := r.AcceptDelay[ci].Mean(u); n != 1 {
		t.Errorf("AcceptDelay missing for cat %d", ci)
	}
}

func TestAcceptanceDelaySpansRetries(t *testing.T) {
	// First attempt at t=0 (no ACK), retry at t=50ms (ACK'd): delay
	// measured from the first attempt.
	d1 := dot11.NewData(apAddr, staAddr, apAddr, 9, make([]byte, 500))
	d1.FC.ToDS = true
	recs := []capture.Record{beaconRec(100), rec(10_000, d1, phy.Rate11Mbps)}
	d2 := dot11.NewData(apAddr, staAddr, apAddr, 9, make([]byte, 500))
	d2.FC.ToDS = true
	d2.FC.Retry = true
	recs = append(recs, rec(60_000, d2, phy.Rate11Mbps))
	end := phy.Micros(60_000) + phy.Airtime(d2.WireLen(), phy.Rate11Mbps)
	recs = append(recs, rec(end+phy.SIFS, dot11.NewACK(staAddr), phy.Rate1Mbps))

	r := analysis.Analyze(recs)
	ci, _ := analysis.CategoryOf(d2.WireLen(), phy.Rate11Mbps).Index()
	var got float64
	found := false
	for u := 0; u <= 100; u++ {
		if m, n := r.AcceptDelay[ci].Mean(u); n > 0 {
			got, found = m, true
		}
	}
	if !found {
		t.Fatal("no delay sample")
	}
	wantMin := float64(end+phy.SIFS-10_000) / 1e6
	if got < wantMin-1e-9 {
		t.Errorf("delay %v < %v: not measured from first attempt", got, wantMin)
	}
	// The retried frame must NOT count as a first-attempt ack.
	for u := 0; u <= 100; u++ {
		if m, n := r.FirstAckPerRate[3].Mean(u); n > 0 && m > 0 {
			t.Error("retry counted as first-attempt ack")
		}
	}
}

func TestMissingDataEstimator(t *testing.T) {
	// An ACK with no preceding DATA → one unrecorded data frame,
	// attributed to the AP (the ACK receiver).
	recs := []capture.Record{
		beaconRec(100),
		rec(500_000, dot11.NewACK(apAddr), phy.Rate1Mbps),
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.MissingData != 1 {
		t.Errorf("MissingData = %d", r.Unrecorded.MissingData)
	}
	st := r.APs.Stat(apAddr)
	if st == nil || st.Unrecorded != 1 {
		t.Errorf("AP attribution: %+v", st)
	}
	if p := r.Unrecorded.Percent(); p <= 0 || p >= 100 {
		t.Errorf("Percent = %v", p)
	}
}

func TestMissingRTSEstimator(t *testing.T) {
	// A CTS with no preceding RTS → one unrecorded RTS.
	recs := []capture.Record{
		beaconRec(100),
		rec(500_000, dot11.NewCTS(apAddr, 1000), phy.Rate1Mbps),
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.MissingRTS != 1 {
		t.Errorf("MissingRTS = %d", r.Unrecorded.MissingRTS)
	}
}

func TestMissingCTSEstimator(t *testing.T) {
	// RTS followed by its DATA with no CTS between → unrecorded CTS.
	rts := dot11.NewRTS(apAddr, staAddr, 2000)
	d := dot11.NewData(apAddr, staAddr, apAddr, 3, make([]byte, 900))
	d.FC.ToDS = true
	recs := []capture.Record{
		beaconRec(100),
		rec(500_000, rts, phy.Rate1Mbps),
		rec(501_000, d, phy.Rate11Mbps),
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.MissingCTS != 1 {
		t.Errorf("MissingCTS = %d", r.Unrecorded.MissingCTS)
	}
	// AP (the RTS receiver = CTS sender) gets the attribution.
	if st := r.APs.Stat(apAddr); st == nil || st.Unrecorded != 1 {
		t.Error("missing CTS not attributed to AP")
	}
}

func TestCompleteRTSCTSExchangeNotFlagged(t *testing.T) {
	rts := dot11.NewRTS(apAddr, staAddr, 2000)
	rtsEnd := phy.Micros(500_000) + phy.Airtime(20, phy.Rate1Mbps)
	cts := dot11.NewCTS(staAddr, 1500)
	ctsStart := rtsEnd + phy.SIFS
	ctsEnd := ctsStart + phy.Airtime(14, phy.Rate1Mbps)
	d := dot11.NewData(apAddr, staAddr, apAddr, 4, make([]byte, 900))
	d.FC.ToDS = true
	dStart := ctsEnd + phy.SIFS
	dEnd := dStart + phy.Airtime(d.WireLen(), phy.Rate11Mbps)
	recs := []capture.Record{
		beaconRec(100),
		rec(500_000, rts, phy.Rate1Mbps),
		rec(ctsStart, cts, phy.Rate1Mbps),
		rec(dStart, d, phy.Rate11Mbps),
		rec(dEnd+phy.SIFS, dot11.NewACK(staAddr), phy.Rate1Mbps),
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.Total() != 0 {
		t.Errorf("complete exchange flagged unrecorded: %+v", r.Unrecorded)
	}
	secs := r.PerChannel[phy.Channel1]
	if secs[0].RTS != 1 || secs[0].CTS != 1 {
		t.Errorf("RTS/CTS counts: %+v", secs[0])
	}
}

func TestAPDiscoveryAndRanking(t *testing.T) {
	ap2 := dot11.AddrFromUint64(0x20)
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	b2 := dot11.NewBeacon(ap2, "net", 6, 200, 1)
	recs = append(recs, rec(200, b2, phy.Rate1Mbps))
	// 3 exchanges via ap1, 1 via ap2.
	t0 := phy.Micros(300_000)
	for i := 0; i < 3; i++ {
		more, end := dataAck(t0, staAddr, 400, phy.Rate11Mbps, uint16(10+i), false)
		recs = append(recs, more...)
		t0 = end + 1000
	}
	d := dot11.NewData(ap2, sta2, ap2, 40, make([]byte, 400))
	d.FC.ToDS = true
	recs = append(recs, rec(t0, d, phy.Rate11Mbps))

	r := analysis.Analyze(recs)
	if r.APs.Count() != 2 {
		t.Fatalf("APs = %d", r.APs.Count())
	}
	top := r.APs.TopN(2)
	if top[0].Addr != apAddr {
		t.Errorf("top AP = %v", top[0].Addr)
	}
	if top[0].Frames <= top[1].Frames {
		t.Error("ranking not decreasing")
	}
	if share := r.APs.TopNShare(1); share <= 0.5 || share >= 1 {
		t.Errorf("TopNShare = %v", share)
	}
	if !r.APs.IsAP(apAddr) || r.APs.IsAP(staAddr) {
		t.Error("IsAP wrong")
	}
}

func TestUserCounting(t *testing.T) {
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	// Two distinct stations in window 0; one in window 1.
	m1, _ := dataAck(1_000_000, staAddr, 300, phy.Rate11Mbps, 1, false)
	m2, _ := dataAck(2_000_000, sta2, 300, phy.Rate11Mbps, 1, false)
	m3, _ := dataAck(31_000_000, staAddr, 300, phy.Rate11Mbps, 2, false)
	recs = append(append(append(recs, m1...), m2...), m3...)
	r := analysis.Analyze(recs)
	if len(r.Users) != 2 {
		t.Fatalf("windows = %d", len(r.Users))
	}
	if r.Users[0].Users != 2 {
		t.Errorf("window 0 users = %d, want 2", r.Users[0].Users)
	}
	if r.Users[1].Users != 1 {
		t.Errorf("window 1 users = %d, want 1", r.Users[1].Users)
	}
	if r.Users[0].WindowStart != 0 || r.Users[1].WindowStart != 30 {
		t.Errorf("window starts: %+v", r.Users)
	}
}

func TestGapFreeTimeSeries(t *testing.T) {
	// Frames at seconds 0 and 3: series must contain seconds 0..3.
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	more, _ := dataAck(3_200_000, staAddr, 300, phy.Rate11Mbps, 1, false)
	recs = append(recs, more...)
	r := analysis.Analyze(recs)
	secs := r.PerChannel[phy.Channel1]
	if len(secs) != 4 {
		t.Fatalf("series length = %d, want 4", len(secs))
	}
	for i, s := range secs {
		if s.Second != int64(i) {
			t.Errorf("series[%d].Second = %d", i, s.Second)
		}
	}
	if secs[1].CBT != 0 || secs[2].CBT != 0 {
		t.Error("idle seconds must have zero CBT")
	}
	if r.UtilHist.N() != 4 {
		t.Errorf("hist N = %d", r.UtilHist.N())
	}
}

func TestBusyTimeAndBytesPerRate(t *testing.T) {
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	m1, next := dataAck(200_000, staAddr, 1400, phy.Rate1Mbps, 1, false)
	recs = append(recs, m1...)
	m2, _ := dataAck(next+1000, sta2, 1400, phy.Rate11Mbps, 1, false)
	recs = append(recs, m2...)
	r := analysis.Analyze(recs)
	u := r.PerChannel[phy.Channel1][0].Utilization
	slow, _ := r.BusyTimePerRate[0].Mean(u)
	fast, _ := r.BusyTimePerRate[3].Mean(u)
	if slow <= fast {
		t.Errorf("1 Mbps busy time (%v) must exceed 11 Mbps (%v) for equal frames", slow, fast)
	}
	b1, _ := r.BytesPerRate[0].Mean(u)
	b11, _ := r.BytesPerRate[3].Mean(u)
	if b1 <= 0 || b11 <= 0 {
		t.Error("bytes per rate missing")
	}
}

func TestTxPerCategory(t *testing.T) {
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	m1, next := dataAck(200_000, staAddr, 100, phy.Rate11Mbps, 1, false) // S-11
	recs = append(recs, m1...)
	m2, _ := dataAck(next+1000, sta2, 1400, phy.Rate1Mbps, 1, false) // XL-1
	recs = append(recs, m2...)
	r := analysis.Analyze(recs)
	u := r.PerChannel[phy.Channel1][0].Utilization
	s11, _ := analysis.CategoryOf(128, phy.Rate11Mbps).Index()
	xl1, _ := analysis.CategoryOf(1428, phy.Rate1Mbps).Index()
	if m, n := r.TxPerCategory[s11].Mean(u); n != 1 || m != 1 {
		t.Errorf("S-11 count: %v,%d", m, n)
	}
	if m, n := r.TxPerCategory[xl1].Mean(u); n != 1 || m != 1 {
		t.Errorf("XL-1 count: %v,%d", m, n)
	}
}

func TestParseErrorsCounted(t *testing.T) {
	recs := []capture.Record{
		beaconRec(100),
		{Time: 200, Rate: phy.Rate1Mbps, Channel: phy.Channel1, OrigLen: 1, Frame: []byte{0xff}},
	}
	r := analysis.Analyze(recs)
	if r.ParseErrors != 1 {
		t.Errorf("ParseErrors = %d", r.ParseErrors)
	}
}

func TestFindKneeFromSyntheticCurve(t *testing.T) {
	r := &analysis.Result{}
	// Throughput rises to a peak at 84 then collapses.
	for u := 30; u <= 99; u++ {
		var v float64
		if u <= 84 {
			v = float64(u) / 84 * 4.9
		} else {
			v = 4.9 - float64(u-84)*0.15
		}
		for i := 0; i < 5; i++ {
			r.Throughput.Add(u, v)
		}
	}
	knee := r.FindKnee(30, 99, 3)
	if knee < 81 || knee > 87 {
		t.Errorf("knee = %d, want 84±3 (window smoothing)", knee)
	}
	// Derived classifier uses it.
	c := r.DeriveClassifier()
	if c.Low != 30 || c.Knee != knee {
		t.Errorf("classifier = %+v", c)
	}
}

func TestFindKneeFallback(t *testing.T) {
	r := &analysis.Result{}
	if knee := r.FindKnee(30, 99, 1); knee != 84 {
		t.Errorf("empty-data knee = %d, want fallback 84", knee)
	}
}

func TestClassShare(t *testing.T) {
	h := stats.NewHistogram(101)
	for v, n := range map[int]int{10: 5, 50: 3, 90: 2} {
		for i := 0; i < n; i++ {
			h.Add(v)
		}
	}
	r := &analysis.Result{UtilHist: h}
	share := r.ClassShare(analysis.PaperClassifier())
	if share[analysis.Uncongested] != 0.5 || share[analysis.Moderate] != 0.3 || share[analysis.High] != 0.2 {
		t.Errorf("shares = %v", share)
	}
}

func TestAnalyzeMultiChannel(t *testing.T) {
	// Records on two channels are analyzed independently; each channel
	// gets its own utilization series.
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	m1, _ := dataAck(200_000, staAddr, 600, phy.Rate11Mbps, 1, false)
	recs = append(recs, m1...)
	ch6 := beaconRec(150)
	ch6.Channel = phy.Channel6
	recs = append(recs, ch6)
	m2, _ := dataAck(300_000, sta2, 600, phy.Rate11Mbps, 1, false)
	for i := range m2 {
		m2[i].Channel = phy.Channel6
	}
	recs = append(recs, m2...)

	r := analysis.Analyze(recs)
	if len(r.PerChannel[phy.Channel1]) != 1 || len(r.PerChannel[phy.Channel6]) != 1 {
		t.Fatalf("per-channel series: %d/%d",
			len(r.PerChannel[phy.Channel1]), len(r.PerChannel[phy.Channel6]))
	}
	// Two channel-seconds in the histogram.
	if r.UtilHist.N() != 2 {
		t.Errorf("hist N = %d", r.UtilHist.N())
	}
}

func TestAnalyzeOutOfOrderRecords(t *testing.T) {
	// The analyzer sorts per channel, so shuffled input produces the
	// same result as ordered input.
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	m, _ := dataAck(200_000, staAddr, 500, phy.Rate11Mbps, 3, false)
	recs = append(recs, m...)
	shuffled := []capture.Record{recs[2], recs[0], recs[1]}
	a := analysis.Analyze(recs)
	b := analysis.Analyze(shuffled)
	if a.Unrecorded != b.Unrecorded || a.TotalFrames != b.TotalFrames {
		t.Error("order dependence detected")
	}
	sa := a.PerChannel[phy.Channel1][0]
	sb := b.PerChannel[phy.Channel1][0]
	if sa.CBT != sb.CBT || sa.GoodputMbps != sb.GoodputMbps {
		t.Errorf("per-second stats differ: %+v vs %+v", sa, sb)
	}
}

func TestAckOutsideWindowNotMatched(t *testing.T) {
	// An ACK arriving far later than SIFS does not acknowledge the
	// data frame; it is counted as an orphan (missing data).
	d := dot11.NewData(apAddr, staAddr, apAddr, 5, make([]byte, 300))
	d.FC.ToDS = true
	recs := []capture.Record{
		beaconRec(100),
		rec(200_000, d, phy.Rate11Mbps),
		rec(900_000, dot11.NewACK(staAddr), phy.Rate1Mbps), // 700 ms later
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.MissingData != 1 {
		t.Errorf("late ACK must count as orphan: %+v", r.Unrecorded)
	}
	// And the data frame is not goodput.
	s := r.PerChannel[phy.Channel1][0]
	if s.GoodputMbps >= s.ThroughputMbps {
		t.Error("unacked data must not be goodput")
	}
}

func TestAckForDifferentStationNotMatched(t *testing.T) {
	// DATA from staAddr followed by an ACK addressed to sta2: no match.
	d := dot11.NewData(apAddr, staAddr, apAddr, 6, make([]byte, 300))
	d.FC.ToDS = true
	end := phy.Micros(200_000) + phy.Airtime(d.WireLen(), phy.Rate11Mbps)
	recs := []capture.Record{
		beaconRec(100),
		rec(200_000, d, phy.Rate11Mbps),
		rec(end+phy.SIFS, dot11.NewACK(sta2), phy.Rate1Mbps),
	}
	r := analysis.Analyze(recs)
	if r.Unrecorded.MissingData != 1 {
		t.Errorf("mismatched ACK must be orphan: %+v", r.Unrecorded)
	}
}

func TestBroadcastDataIsGoodputWithoutAck(t *testing.T) {
	d := dot11.NewData(dot11.Broadcast, apAddr, apAddr, 7, make([]byte, 200))
	d.FC.FromDS = true
	recs := []capture.Record{beaconRec(100), rec(200_000, d, phy.Rate11Mbps)}
	r := analysis.Analyze(recs)
	s := r.PerChannel[phy.Channel1][0]
	// Beacon + broadcast data both count fully toward goodput.
	if s.GoodputMbps != s.ThroughputMbps {
		t.Errorf("broadcast goodput %v != throughput %v", s.GoodputMbps, s.ThroughputMbps)
	}
	if r.Unrecorded.Total() != 0 {
		t.Error("broadcast needs no ACK; nothing is missing")
	}
}

func TestUtilizationClampAt100(t *testing.T) {
	// Pathological trace: enormous CBT in one second must clamp.
	var recs []capture.Record
	recs = append(recs, beaconRec(100))
	t0 := phy.Micros(200_000)
	for i := 0; i < 200; i++ {
		d := dot11.NewData(apAddr, staAddr, apAddr, uint16(i), make([]byte, 1400))
		d.FC.ToDS = true
		recs = append(recs, rec(t0, d, phy.Rate1Mbps))
		t0 += 3000
	}
	r := analysis.Analyze(recs)
	if u := r.PerChannel[phy.Channel1][0].Utilization; u != 100 {
		t.Errorf("utilization = %d, want clamp at 100", u)
	}
}
