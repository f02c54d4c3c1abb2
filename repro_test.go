package repro

import (
	"bytes"
	"reflect"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/workload"
)

// These integration tests lock in the paper's headline observations as
// executable assertions over the full pipeline (simulate → sniff →
// pcap round-trip → analyze). They assert the *shape* of each result —
// who wins, which direction curves move — not absolute values, per the
// reproduction contract in DESIGN.md.

// TestEndToEndPcapRoundTrip pushes a session trace through the on-disk
// pcap format and verifies the analysis is identical to the in-memory
// path (the wire format loses nothing the analysis needs, apart from
// snap-length truncation which both paths share).
func TestEndToEndPcapRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	b, err := workload.DaySession().Scale(0.15).Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := b.Run()
	direct := analysis.Analyze(recs)

	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	loaded, skipped, err := capture.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d records", skipped)
	}
	viaDisk := analysis.Analyze(loaded)

	if direct.TotalFrames != viaDisk.TotalFrames {
		t.Errorf("frame counts differ: %d vs %d", direct.TotalFrames, viaDisk.TotalFrames)
	}
	if direct.Unrecorded != viaDisk.Unrecorded {
		t.Errorf("unrecorded stats differ: %+v vs %+v", direct.Unrecorded, viaDisk.Unrecorded)
	}
	dm, _ := direct.UtilHist.Mode()
	lm, _ := viaDisk.UtilHist.Mode()
	if dm != lm {
		t.Errorf("modal utilization differs: %d vs %d", dm, lm)
	}
}

// TestStreamingEquivalenceOnFixtures is the redesign's acceptance
// gate at full fidelity: on the repro fixtures (the multi-channel day
// session and the sweep ladder), feeding records incrementally through
// the streaming pipeline produces a Result identical to the batch
// entry point.
func TestStreamingEquivalenceOnFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, tc := range []struct {
		name  string
		trace []capture.Record
	}{{"day", day()}, {"sweep", sweep()}} {
		t.Run(tc.name, func(t *testing.T) {
			batch := analysis.Analyze(tc.trace)

			a, err := analysis.New(analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Feed in capture order (interleaved across channels), one
			// record at a time, as a live merge would deliver them.
			for _, r := range tc.trace {
				a.Feed(r)
			}
			if streamed := a.Result(); !reflect.DeepEqual(batch, streamed) {
				t.Error("incremental streaming result differs from batch")
			}
		})
	}
}

// sweepResult is shared by the shape tests below (one ladder run).
func sweepResult(t *testing.T) *analysis.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("slow")
	}
	return analysis.Analyze(sweep()) // bench_test.go's cached ladder trace
}

// TestShape_ThroughputRisesThenPeaks asserts Figure 6's shape: mean
// throughput over moderate utilization exceeds light utilization, and
// the knee falls inside the paper's analysis range.
func TestShape_ThroughputRisesThenPeaks(t *testing.T) {
	r := sweepResult(t)
	light := r.Throughput.MeanOver(10, 40)
	moderate := r.Throughput.MeanOver(60, 90)
	if moderate <= light {
		t.Errorf("throughput must rise with utilization: light=%.2f moderate=%.2f", light, moderate)
	}
	knee := r.FindKnee(30, 99, 5)
	if knee < 40 || knee > 99 {
		t.Errorf("knee = %d%%, outside plausible range", knee)
	}
	// Goodput never exceeds throughput in any populated band.
	for u := 0; u <= 100; u++ {
		tm, tn := r.Throughput.Mean(u)
		gm, gn := r.Goodput.Mean(u)
		if tn > 0 && gn > 0 && gm > tm+1e-9 {
			t.Errorf("goodput %v > throughput %v at %d%%", gm, tm, u)
		}
	}
}

// TestShape_OneMbpsBusyTimeGrows asserts Figure 8's core finding: the
// fraction of each second consumed by 1 Mbps frames grows from
// moderate to high congestion, and 1 Mbps occupies more time than
// 11 Mbps at high congestion despite carrying fewer bytes (Figure 9).
func TestShape_OneMbpsBusyTimeGrows(t *testing.T) {
	r := sweepResult(t)
	bt1Mid := r.BusyTimePerRate[0].MeanOver(40, 70)
	bt1High := r.BusyTimePerRate[0].MeanOver(80, 99)
	if bt1High <= bt1Mid {
		t.Errorf("1 Mbps busy time must grow with congestion: %.3f → %.3f", bt1Mid, bt1High)
	}
	bt11High := r.BusyTimePerRate[3].MeanOver(80, 99)
	if bt1High <= bt11High {
		t.Errorf("at high congestion 1 Mbps time (%.3f) must exceed 11 Mbps time (%.3f)", bt1High, bt11High)
	}
	by1 := r.BytesPerRate[0].MeanOver(70, 99)
	by11 := r.BytesPerRate[3].MeanOver(70, 99)
	if by11 <= by1 {
		t.Errorf("11 Mbps must move more bytes than 1 Mbps: %.0f vs %.0f", by11, by1)
	}
}

// TestShape_MiddleRatesScarce asserts the paper's first headline
// observation: 2 and 5.5 Mbps carry a minority of data transmissions
// at every congestion level.
func TestShape_MiddleRatesScarce(t *testing.T) {
	r := sweepResult(t)
	var per [4]float64
	for ri, rt := range phy.Rates {
		for s := analysis.SizeS; s <= analysis.SizeXL; s++ {
			ci, _ := analysis.Category{Size: s, Rate: rt}.Index()
			per[ri] += r.TxPerCategory[ci].MeanOver(30, 99)
		}
	}
	mid := per[1] + per[2]
	edge := per[0] + per[3]
	if mid >= edge {
		t.Errorf("middle rates (%.1f tx/s) must be scarce vs 1+11 Mbps (%.1f tx/s)", mid, edge)
	}
}

// TestShape_AcceptanceDelayOrdering asserts Figure 15's findings at
// high congestion: 1 Mbps frames wait longer than 11 Mbps frames, and
// specifically a small 1 Mbps frame waits longer than an extra-large
// 11 Mbps frame.
func TestShape_AcceptanceDelayOrdering(t *testing.T) {
	r := sweepResult(t)
	at := func(size analysis.SizeClass, rt phy.Rate) float64 {
		ci, _ := analysis.Category{Size: size, Rate: rt}.Index()
		return r.AcceptDelay[ci].MeanOver(70, 99)
	}
	s1, s11 := at(analysis.SizeS, phy.Rate1Mbps), at(analysis.SizeS, phy.Rate11Mbps)
	xl11 := at(analysis.SizeXL, phy.Rate11Mbps)
	if s1 <= s11 {
		t.Errorf("S-1 delay (%.4fs) must exceed S-11 (%.4fs)", s1, s11)
	}
	if s1 <= xl11 {
		t.Errorf("S-1 delay (%.4fs) must exceed XL-11 (%.4fs): the paper's size-independence claim", s1, xl11)
	}
}

// TestShape_RTSCTSRelationship asserts Figure 7's structure: CTS
// counts never exceed RTS counts in any populated band (a CTS needs a
// delivered RTS), and RTS activity exists across the congestion range.
func TestShape_RTSCTSRelationship(t *testing.T) {
	r := sweepResult(t)
	seen := false
	for u := 30; u <= 99; u++ {
		rm, rn := r.RTSPerSec.Mean(u)
		cm, cn := r.CTSPerSec.Mean(u)
		if rn == 0 || cn == 0 {
			continue
		}
		seen = true
		if cm > rm+1e-9 {
			t.Errorf("CTS/s (%.2f) exceeds RTS/s (%.2f) at %d%%", cm, rm, u)
		}
	}
	if !seen {
		t.Error("no RTS/CTS data in the sweep")
	}
}

// TestShape_SessionsMatchTable1 asserts the day/plenary contrast of
// Figure 5(c): the plenary's modal utilization exceeds the day's.
func TestShape_SessionsMatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dayMode, _ := analysis.Analyze(day()).UtilHist.Mode()
	plenMode, _ := analysis.Analyze(plenary()).UtilHist.Mode()
	if plenMode <= dayMode {
		t.Errorf("plenary mode (%d%%) must exceed day mode (%d%%)", plenMode, dayMode)
	}
}

// TestShape_UnrecordedEstimatorUnderestimates validates the estimator
// against ground truth: Equation 1 is a lower bound (it cannot see
// exchanges where both halves were missed), so the estimate must be
// positive under lossy capture yet below the true miss rate.
func TestShape_UnrecordedEstimatorUnderestimates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	b, err := workload.DaySession().Scale(0.2).Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := b.Run()
	var seen, captured int64
	for _, sn := range b.Sniffers {
		seen += sn.Seen
		captured += sn.Captured
	}
	if seen == 0 || captured == seen {
		t.Skip("no capture loss in this run; nothing to validate")
	}
	truth := 100 * float64(seen-captured) / float64(seen)
	est := analysis.Analyze(recs).Unrecorded.Percent()
	if est < 0 {
		t.Fatalf("estimate negative: %v", est)
	}
	if est > truth*1.5+1 {
		t.Errorf("estimate %.2f%% wildly exceeds truth %.2f%%", est, truth)
	}
}
