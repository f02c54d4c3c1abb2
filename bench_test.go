// Package repro benchmarks regenerate every table and figure of
// Jardosh et al., "Understanding Congestion in IEEE 802.11b Wireless
// Networks" (IMC 2005), plus the ablations called out in DESIGN.md.
//
// Each BenchmarkTableN/BenchmarkFigureN target runs the workload that
// produces the corresponding result and reports the headline values as
// benchmark metrics, so `go test -bench=.` doubles as the experiment
// harness. EXPERIMENTS.md records paper-vs-measured for each.
package repro

import (
	"context"
	"sync"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
	"wlan80211/internal/workload"
)

// Shared traces: the scatter figures all analyze the same sweep
// ladder, and Figure 4/5 benches the same sessions, so the expensive
// simulations run once and the benches measure analysis + extraction.
var (
	sweepOnce  sync.Once
	sweepTrace []capture.Record

	dayOnce  sync.Once
	dayTrace []capture.Record

	plenaryOnce  sync.Once
	plenaryTrace []capture.Record
)

func sweep() []capture.Record {
	sweepOnce.Do(func() {
		sweepTrace = workload.MultiSweep(workload.DefaultLadder(0.6))
	})
	return sweepTrace
}

func day() []capture.Record {
	dayOnce.Do(func() {
		b, err := workload.DaySession().Scale(0.4).Build()
		if err != nil {
			panic(err)
		}
		dayTrace = b.Run()
	})
	return dayTrace
}

func plenary() []capture.Record {
	plenaryOnce.Do(func() {
		b, err := workload.PlenarySession().Scale(0.4).Build()
		if err != nil {
			panic(err)
		}
		plenaryTrace = b.Run()
	})
	return plenaryTrace
}

// BenchmarkTable1_Sessions regenerates Table 1's two data sets (the
// day and plenary scenarios end to end: simulate + capture).
func BenchmarkTable1_Sessions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		built, err := workload.DaySession().Scale(0.15).Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty day trace")
		}
		built, err = workload.PlenarySession().Scale(0.15).Build()
		if err != nil {
			b.Fatal(err)
		}
		recs = built.Run()
		if len(recs) == 0 {
			b.Fatal("empty plenary trace")
		}
	}
}

// BenchmarkTable2_DelayComponents verifies and times the Table 2 CBT
// primitives (the hot inner loop of the analyzer).
func BenchmarkTable2_DelayComponents(b *testing.B) {
	var sink phy.Micros
	for i := 0; i < b.N; i++ {
		sink += analysis.CBTData(1000+i%500, phy.Rates[i%4])
		sink += analysis.CBTRTS() + analysis.CBTCTS() + analysis.CBTACK() + analysis.CBTBeacon()
	}
	if sink == 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFigure4a_PerAPTraffic ranks APs by traffic on the day trace
// and reports the share carried by the most active APs (paper: top 15
// of 152 carried 90.3% day / 95.4% plenary).
func BenchmarkFigure4a_PerAPTraffic(b *testing.B) {
	trace := day()
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		share = r.APs.TopNShare(3)
	}
	b.ReportMetric(share*100, "top3_share_%")
}

// BenchmarkFigure4b_UserCounts extracts the associated-user curve
// (paper: peaks of 523 day / 325 plenary users).
func BenchmarkFigure4b_UserCounts(b *testing.B) {
	trace := day()
	b.ResetTimer()
	peak := 0
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		peak = 0
		for _, u := range r.Users {
			if u.Users > peak {
				peak = u.Users
			}
		}
	}
	b.ReportMetric(float64(peak), "peak_users")
}

// BenchmarkFigure4c_UnrecordedPct estimates unrecorded frames via DCF
// atomicity (paper: 3–15% day, 5–20% plenary per top AP).
func BenchmarkFigure4c_UnrecordedPct(b *testing.B) {
	dayT, plenT := day(), plenary()
	b.ResetTimer()
	var dayPct, plenPct float64
	for i := 0; i < b.N; i++ {
		dayPct = analysis.Analyze(dayT).Unrecorded.Percent()
		plenPct = analysis.Analyze(plenT).Unrecorded.Percent()
	}
	b.ReportMetric(dayPct, "day_unrecorded_%")
	b.ReportMetric(plenPct, "plenary_unrecorded_%")
}

// BenchmarkFigure5_UtilizationSeries builds the per-channel
// utilization time series for both sessions.
func BenchmarkFigure5_UtilizationSeries(b *testing.B) {
	dayT, plenT := day(), plenary()
	b.ResetTimer()
	var seconds int
	for i := 0; i < b.N; i++ {
		rd := analysis.Analyze(dayT)
		rp := analysis.Analyze(plenT)
		seconds = 0
		for _, ch := range phy.OrthogonalChannels {
			seconds += len(rd.PerChannel[ch]) + len(rp.PerChannel[ch])
		}
	}
	b.ReportMetric(float64(seconds), "channel_seconds")
}

// BenchmarkFigure5c_UtilizationHistogram reports the modal utilization
// of each session (paper: ≈55% day, ≈86% plenary).
func BenchmarkFigure5c_UtilizationHistogram(b *testing.B) {
	dayT, plenT := day(), plenary()
	b.ResetTimer()
	var dayMode, plenMode int
	for i := 0; i < b.N; i++ {
		dayMode, _ = analysis.Analyze(dayT).UtilHist.Mode()
		plenMode, _ = analysis.Analyze(plenT).UtilHist.Mode()
	}
	b.ReportMetric(float64(dayMode), "day_mode_%")
	b.ReportMetric(float64(plenMode), "plenary_mode_%")
}

// BenchmarkFigure6_ThroughputGoodput reports the throughput knee
// (paper: throughput peaks ≈4.9 Mbps at 84% utilization, collapsing to
// 2.8 by 98%; goodput 4.4→2.6).
func BenchmarkFigure6_ThroughputGoodput(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var knee int
	var peak, tail float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		knee = r.FindKnee(30, 99, 5)
		peak = r.Throughput.MeanOver(knee-4, knee+4)
		tail = r.Throughput.MeanOver(90, 99)
	}
	b.ReportMetric(float64(knee), "knee_%")
	b.ReportMetric(peak, "peak_mbps")
	b.ReportMetric(tail, "tail_mbps")
}

// BenchmarkFigure7_RTSCTS reports RTS/CTS rates in the moderate band
// versus high congestion (paper: RTS rises ~5→8/s to 84%, collapses
// after; CTS trails RTS).
func BenchmarkFigure7_RTSCTS(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var rtsMid, rtsHigh, ctsMid float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		rtsMid = r.RTSPerSec.MeanOver(60, 84)
		rtsHigh = r.RTSPerSec.MeanOver(85, 99)
		ctsMid = r.CTSPerSec.MeanOver(60, 84)
	}
	b.ReportMetric(rtsMid, "rts_mid_per_s")
	b.ReportMetric(rtsHigh, "rts_high_per_s")
	b.ReportMetric(ctsMid, "cts_mid_per_s")
}

// BenchmarkFigure8_BusyTimeShare reports the 1 Mbps busy-time share at
// moderate vs high congestion (paper: 0.43 s → 0.54 s).
func BenchmarkFigure8_BusyTimeShare(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var bt1Mid, bt1High, bt11High float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		bt1Mid = r.BusyTimePerRate[0].MeanOver(50, 84)
		bt1High = r.BusyTimePerRate[0].MeanOver(85, 99)
		bt11High = r.BusyTimePerRate[3].MeanOver(85, 99)
	}
	b.ReportMetric(bt1Mid, "bt1_mid_s")
	b.ReportMetric(bt1High, "bt1_high_s")
	b.ReportMetric(bt11High, "bt11_high_s")
}

// BenchmarkFigure9_BytesPerRate reports the 11-vs-1 Mbps byte ratio at
// high congestion (paper: 11 Mbps moves ≈300% the bytes of 1 Mbps in
// about half the channel time).
func BenchmarkFigure9_BytesPerRate(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		by1 := r.BytesPerRate[0].MeanOver(70, 99)
		by11 := r.BytesPerRate[3].MeanOver(70, 99)
		if by1 > 0 {
			ratio = by11 / by1
		}
	}
	b.ReportMetric(ratio*100, "bytes11_vs_1_%")
}

// BenchmarkFigure10_SmallFrames reports S-frame rate usage (paper:
// S-11 dominates; S-2/S-5.5 scarce at every congestion level).
func BenchmarkFigure10_SmallFrames(b *testing.B) {
	benchCategoryShare(b, analysis.SizeS)
}

// BenchmarkFigure11_XLFrames reports XL-frame rate usage (paper: XL-11
// dominates and grows under congestion).
func BenchmarkFigure11_XLFrames(b *testing.B) {
	benchCategoryShare(b, analysis.SizeXL)
}

// benchCategoryShare reports the middle-rate share of a size class's
// transmissions — the paper's "scarce use of 2 and 5.5 Mbps".
func benchCategoryShare(b *testing.B, size analysis.SizeClass) {
	trace := sweep()
	b.ResetTimer()
	var midShare, r11 float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		var per [4]float64
		for ri, rt := range phy.Rates {
			ci, _ := analysis.Category{Size: size, Rate: rt}.Index()
			per[ri] = r.TxPerCategory[ci].MeanOver(30, 99)
		}
		total := per[0] + per[1] + per[2] + per[3]
		if total > 0 {
			midShare = (per[1] + per[2]) / total
			r11 = per[3] / total
		}
	}
	b.ReportMetric(midShare*100, "mid_rates_%")
	b.ReportMetric(r11*100, "rate11_%")
}

// BenchmarkFigure12_OneMbpsBySize reports 1 Mbps tx/s growth from
// moderate to high congestion (paper: S-1 and XL-1 both rise).
func BenchmarkFigure12_OneMbpsBySize(b *testing.B) {
	benchRateGrowth(b, phy.Rate1Mbps)
}

// BenchmarkFigure13_ElevenMbpsBySize reports 11 Mbps tx/s from
// moderate to high congestion.
func BenchmarkFigure13_ElevenMbpsBySize(b *testing.B) {
	benchRateGrowth(b, phy.Rate11Mbps)
}

func benchRateGrowth(b *testing.B, rt phy.Rate) {
	trace := sweep()
	b.ResetTimer()
	var mid, high float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		mid, high = 0, 0
		for s := analysis.SizeS; s <= analysis.SizeXL; s++ {
			ci, _ := analysis.Category{Size: s, Rate: rt}.Index()
			mid += r.TxPerCategory[ci].MeanOver(50, 84)
			high += r.TxPerCategory[ci].MeanOver(85, 99)
		}
	}
	b.ReportMetric(mid, "tx_mid_per_s")
	b.ReportMetric(high, "tx_high_per_s")
}

// BenchmarkFigure14_FirstAttemptAcks reports first-attempt
// acknowledgment rates at 1 and 11 Mbps under high congestion.
func BenchmarkFigure14_FirstAttemptAcks(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var a1, a11 float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		a1 = r.FirstAckPerRate[0].MeanOver(85, 99)
		a11 = r.FirstAckPerRate[3].MeanOver(85, 99)
	}
	b.ReportMetric(a1, "acked1_per_s")
	b.ReportMetric(a11, "acked11_per_s")
}

// BenchmarkFigure15_AcceptanceDelay reports acceptance delays for the
// paper's four categories at high congestion (paper: S-1 > XL-11;
// 11 Mbps beats 1 Mbps regardless of size).
func BenchmarkFigure15_AcceptanceDelay(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var s1, x1, s11, x11 float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		at := func(size analysis.SizeClass, rt phy.Rate) float64 {
			ci, _ := analysis.Category{Size: size, Rate: rt}.Index()
			return r.AcceptDelay[ci].MeanOver(70, 99) * 1000
		}
		s1 = at(analysis.SizeS, phy.Rate1Mbps)
		x1 = at(analysis.SizeXL, phy.Rate1Mbps)
		s11 = at(analysis.SizeS, phy.Rate11Mbps)
		x11 = at(analysis.SizeXL, phy.Rate11Mbps)
	}
	b.ReportMetric(s1, "S1_ms")
	b.ReportMetric(x1, "XL1_ms")
	b.ReportMetric(s11, "S11_ms")
	b.ReportMetric(x11, "XL11_ms")
}

// --- Analysis pipeline: batch vs streaming ---------------------------

// BenchmarkAnalyzeBatch measures the compatibility entry point
// (analysis.Analyze over a materialized trace) on the three-channel sweep
// ladder.
func BenchmarkAnalyzeBatch(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		frames = analysis.Analyze(trace).TotalFrames
	}
	b.ReportMetric(float64(frames), "frames")
}

// BenchmarkAnalyzeStream measures the streaming path: records fed one
// at a time through the metric pipeline, as a live capture would
// arrive.
func BenchmarkAnalyzeStream(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		a, err := analysis.New(analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j := range trace {
			a.Feed(trace[j])
		}
		frames = a.Result().TotalFrames
	}
	b.ReportMetric(float64(frames), "frames")
}

// --- Experiment engine ------------------------------------------------

// BenchmarkExperimentMatrix measures the worker-pool engine on an
// 8-cell seeds×scales sweep matrix, every run streaming straight into
// its own analysis pipeline (simulate + analyze, no materialized
// traces).
func BenchmarkExperimentMatrix(b *testing.B) {
	m := experiment.Matrix{
		Scenarios: []string{"sweep"},
		Seeds:     []int64{1, 2, 3, 4},
		Scales:    []float64{0.1, 0.15},
	}
	var frames float64
	for i := 0; i < b.N; i++ {
		specs, err := m.Expand()
		if err != nil {
			b.Fatal(err)
		}
		results := collectSpecs(b, specs)
		frames = 0
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			frames += float64(r.Summary.Frames)
		}
	}
	b.ReportMetric(frames, "frames")
}

// collectSpecs runs pre-built specs through Runner.Execute's collect
// mode.
func collectSpecs(b *testing.B, specs []experiment.Spec) []experiment.RunResult {
	b.Helper()
	ex, err := (&experiment.Runner{}).Execute(context.Background(), experiment.RunSpecOpts{Specs: specs})
	if err != nil {
		b.Fatal(err)
	}
	return ex.Results
}

// BenchmarkTable1_FullScale runs the day and plenary sessions at full
// Scale(1.0) through the streaming engine and reports the absolute
// Table 1 counts as custom metrics — the paper-comparison numbers the
// opt-in CI job uploads as raw `go test -bench` output. Streaming
// keeps peak memory at per-second state even for these multi-minute,
// hundred-user runs.
func BenchmarkTable1_FullScale(b *testing.B) {
	specs := []experiment.Spec{
		{Name: "day", Scale: 1.0, Scenario: experiment.NewSession(workload.DaySession())},
		{Name: "plenary", Scale: 1.0, Scenario: experiment.NewSession(workload.PlenarySession())},
	}
	var day, plenary experiment.Summary
	for i := 0; i < b.N; i++ {
		results := collectSpecs(b, specs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		day, plenary = results[0].Summary, results[1].Summary
	}
	b.ReportMetric(float64(day.Frames), "day_frames")
	b.ReportMetric(float64(day.DataFrames), "day_data_frames")
	b.ReportMetric(float64(day.PeakUsers), "day_peak_users")
	b.ReportMetric(float64(day.ModalUtilPct), "day_mode_%")
	b.ReportMetric(day.UnrecordedPct, "day_unrecorded_%")
	b.ReportMetric(float64(plenary.Frames), "plenary_frames")
	b.ReportMetric(float64(plenary.DataFrames), "plenary_data_frames")
	b.ReportMetric(float64(plenary.PeakUsers), "plenary_peak_users")
	b.ReportMetric(float64(plenary.ModalUtilPct), "plenary_mode_%")
	b.ReportMetric(plenary.UnrecordedPct, "plenary_unrecorded_%")
}

// --- Ablations (DESIGN.md A1–A4) -------------------------------------

// BenchmarkAblation_RateAdaptation compares goodput under ARF vs the
// SNR scheme the paper recommends (Sec 7).
func BenchmarkAblation_RateAdaptation(b *testing.B) {
	run := func(f rate.Factory, seed int64) float64 {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		net := sim.New(cfg)
		ap := net.AddAP("ap", sim.Position{X: 12, Y: 12}, phy.Channel1)
		sn := sniffer.New(sniffer.DefaultConfig("S", 1, sim.Position{X: 12, Y: 14}, phy.Channel1))
		net.AddTap(sn)
		for i := 0; i < 16; i++ {
			st := net.AddStation("u", sim.Position{X: 4 + float64(i), Y: 8}, ap, f)
			net.StartTraffic(st, sim.ProfileBulk, 6)
		}
		net.RunFor(10 * phy.MicrosPerSecond)
		return analysis.Analyze(sn.Records()).Goodput.MeanOver(0, 100)
	}
	var arf, snr float64
	for i := 0; i < b.N; i++ {
		arf = run(rate.NewARFFactory(), 31)
		snr = run(rate.NewSNRFactory(), 31)
	}
	b.ReportMetric(arf, "arf_goodput_mbps")
	b.ReportMetric(snr, "snr_goodput_mbps")
	if arf > 0 {
		b.ReportMetric(snr/arf, "snr_over_arf")
	}
}

// BenchmarkAblation_RTSCTSFairness measures the paper's Sec 6.1 claim:
// a minority of RTS/CTS users gets less than its fair share of acked
// frames under congestion.
func BenchmarkAblation_RTSCTSFairness(b *testing.B) {
	var rtsShare float64
	for i := 0; i < b.N; i++ {
		// Average over several seeds: per-run ratios are noisy with
		// only two RTS stations.
		var sum float64
		seeds := []int64{77, 78, 79, 80}
		for _, seed := range seeds {
			sum += rtsFairnessRun(seed)
		}
		rtsShare = sum / float64(len(seeds))
	}
	b.ReportMetric(rtsShare, "rts_vs_plain_goodput_ratio")
}

func rtsFairnessRun(seed int64) float64 {
	{
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		net := sim.New(cfg)
		ap := net.AddAP("ap", sim.Position{X: 12, Y: 12}, phy.Channel1)
		var rtsUsers, plain []*sim.Node
		for j := 0; j < 20; j++ {
			st := net.AddStation("u", sim.Position{X: 4 + float64(j), Y: 8}, ap, rate.NewMixedFactory())
			if j < 2 { // the minority the paper observed
				st.UseRTS = true
				rtsUsers = append(rtsUsers, st)
			} else {
				plain = append(plain, st)
			}
			net.StartTraffic(st, sim.ProfileBulk, 12)
		}
		net.RunFor(10 * phy.MicrosPerSecond)
		var rtsAcked, plainAcked int64
		for _, st := range rtsUsers {
			rtsAcked += st.Acked
		}
		for _, st := range plain {
			plainAcked += st.Acked
		}
		perRTS := float64(rtsAcked) / float64(len(rtsUsers))
		perPlain := float64(plainAcked) / float64(len(plain))
		if perPlain > 0 {
			return perRTS / perPlain
		}
	}
	return 0
}

// BenchmarkAblation_BackoffAssumption quantifies the DBO=0 assumption
// (Sec 5.1): recompute utilization charging each data frame an extra
// mean backoff (CWmin/2 slots) and report how far utilization shifts.
func BenchmarkAblation_BackoffAssumption(b *testing.B) {
	trace := sweep()
	meanBO := phy.Micros(phy.CWMin) / 2 * phy.SlotTime
	b.ResetTimer()
	var shift float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		// Per-second data frame counts approximate the extra charge.
		var base, adj, n float64
		for _, secs := range r.PerChannel {
			for _, s := range secs {
				if s.Utilization < 30 {
					continue
				}
				extra := float64(s.Data) * float64(meanBO) / 1e6 * 100
				base += float64(s.Utilization)
				adjU := float64(s.Utilization) + extra
				if adjU > 100 {
					adjU = 100
				}
				adj += adjU
				n++
			}
		}
		if n > 0 {
			shift = (adj - base) / n
		}
	}
	b.ReportMetric(shift, "mean_util_shift_pts")
}

// BenchmarkAblation_SnifferCount measures how the unrecorded
// percentage falls as sniffers are added (Sec 4.4's recommendation).
func BenchmarkAblation_SnifferCount(b *testing.B) {
	run := func(count int) float64 {
		cfg := sim.DefaultConfig()
		cfg.Seed = 5
		cfg.Env.PathLossExponent = 3.45
		cfg.Env.ShadowingSigmaDB = 6
		net := sim.New(cfg)
		ap1 := net.AddAP("ap1", sim.Position{X: 15, Y: 18}, phy.Channel1)
		ap2 := net.AddAP("ap2", sim.Position{X: 75, Y: 18}, phy.Channel1)
		f := rate.NewMixedFactory()
		for i := 0; i < 8; i++ {
			a := net.AddStation("a", sim.Position{X: 8 + float64(i)*1.5, Y: 12}, ap1, f)
			net.StartTraffic(a, sim.ProfileWeb, 3)
			c := net.AddStation("b", sim.Position{X: 38 + float64(i)*1.5, Y: 24}, ap2, f)
			net.StartTraffic(c, sim.ProfileWeb, 3)
		}
		positions := []sim.Position{{X: 45, Y: 30}, {X: 12, Y: 16}, {X: 78, Y: 20}}
		var sniffers []*sniffer.Sniffer
		for i := 0; i < count; i++ {
			sn := sniffer.New(sniffer.DefaultConfig("S", i+1, positions[i], phy.Channel1))
			net.AddTap(sn)
			sniffers = append(sniffers, sn)
		}
		net.RunFor(8 * phy.MicrosPerSecond)
		traces := make([][]capture.Record, len(sniffers))
		for i, sn := range sniffers {
			traces[i] = sn.Records()
		}
		return analysis.Analyze(capture.Merge(traces...)).Unrecorded.Percent()
	}
	var one, three float64
	for i := 0; i < b.N; i++ {
		one = run(1)
		three = run(3)
	}
	b.ReportMetric(one, "unrec_1sniffer_%")
	b.ReportMetric(three, "unrec_3sniffers_%")
}

// BenchmarkAblation_ContentionWindow compares the paper's observed
// CWMax of 255 ("MaxBO increases exponentially from 31 to 255 slot
// times", Sec 3) against the 802.11 standard's 1023 under saturation:
// the narrower window resolves contention faster but collides more.
func BenchmarkAblation_ContentionWindow(b *testing.B) {
	run := func(cwMax int) (float64, int64) {
		cfg := sim.DefaultConfig()
		cfg.Seed = 55
		cfg.CWMax = cwMax
		net := sim.New(cfg)
		ap := net.AddAP("ap", sim.Position{X: 12, Y: 12}, phy.Channel1)
		sn := sniffer.New(sniffer.DefaultConfig("S", 1, sim.Position{X: 12, Y: 14}, phy.Channel1))
		net.AddTap(sn)
		for i := 0; i < 20; i++ {
			st := net.AddStation("u", sim.Position{X: 4 + float64(i), Y: 8}, ap, rate.NewMixedFactory())
			net.StartTraffic(st, sim.ProfileBulk, 10)
		}
		net.RunFor(10 * phy.MicrosPerSecond)
		return analysis.Analyze(sn.Records()).Goodput.MeanOver(0, 100), net.Stats.Collisions
	}
	var gPaper, gStd float64
	var cPaper, cStd int64
	for i := 0; i < b.N; i++ {
		gPaper, cPaper = run(phy.CWMaxPaper)
		gStd, cStd = run(phy.CWMaxStandard)
	}
	b.ReportMetric(gPaper, "goodput_cw255_mbps")
	b.ReportMetric(gStd, "goodput_cw1023_mbps")
	b.ReportMetric(float64(cPaper), "collisions_cw255")
	b.ReportMetric(float64(cStd), "collisions_cw1023")
}

// BenchmarkAblation_TransmitPowerControl measures Sec 7's client TPC
// suggestion: setting station power for a target AP SNR versus the
// fixed 15 dBm default, in a two-cell co-channel deployment where the
// interference footprint matters.
func BenchmarkAblation_TransmitPowerControl(b *testing.B) {
	run := func(tpc bool) float64 {
		cfg := sim.DefaultConfig()
		cfg.Seed = 66
		net := sim.New(cfg)
		ap1 := net.AddAP("ap1", sim.Position{X: 15, Y: 15}, phy.Channel1)
		ap2 := net.AddAP("ap2", sim.Position{X: 55, Y: 15}, phy.Channel1) // co-channel neighbour
		sn := sniffer.New(sniffer.DefaultConfig("S", 1, sim.Position{X: 35, Y: 15}, phy.Channel1))
		net.AddTap(sn)
		for i := 0; i < 8; i++ {
			a := net.AddStation("a", sim.Position{X: 10 + float64(i), Y: 12}, ap1, rate.NewMixedFactory())
			net.StartTraffic(a, sim.ProfileBulk, 5)
			c := net.AddStation("b", sim.Position{X: 50 + float64(i), Y: 18}, ap2, rate.NewMixedFactory())
			net.StartTraffic(c, sim.ProfileBulk, 5)
		}
		if tpc {
			net.ApplyTPC(25)
		}
		net.RunFor(10 * phy.MicrosPerSecond)
		return float64(net.Stats.DataAcked)
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off, "acked_fixed_power")
	b.ReportMetric(on, "acked_tpc")
	if off > 0 {
		b.ReportMetric(on/off, "tpc_gain")
	}
}

// BenchmarkAblation_BeaconReliability evaluates the authors' earlier
// E-WIND metric against this paper's utilization metric: beacon
// reception reliability should fall as utilization rises (negative
// correlation), confirming why either works as a congestion signal.
func BenchmarkAblation_BeaconReliability(b *testing.B) {
	trace := sweep()
	b.ResetTimer()
	var corr, mean float64
	for i := 0; i < b.N; i++ {
		r := analysis.Analyze(trace)
		rel := analysis.MeasureBeaconReliability(trace, 10)
		corr = rel.CorrelateWithUtilization(r)
		mean = rel.MeanRatio()
	}
	b.ReportMetric(corr, "reliability_util_corr")
	b.ReportMetric(mean, "mean_reliability")
}
