package report

import (
	"fmt"

	"wlan80211/internal/analysis"
	"wlan80211/internal/phy"
	"wlan80211/internal/stats"
)

// This file turns a analysis.Result into the paper's tables and figures.
// Scatter figures (6–15) are emitted as rows of utilization bands
// (5-point buckets over the paper's 30–99% range) so text output stays
// readable; the underlying per-percent data is available from the
// Result for finer rendering.

// FigureBands lists the utilization buckets used for scatter rows.
func FigureBands() [][2]int {
	var bands [][2]int
	for lo := 30; lo < 100; lo += 5 {
		hi := lo + 4
		if hi > 99 {
			hi = 99
		}
		bands = append(bands, [2]int{lo, hi})
	}
	return bands
}

// bandRow formats one utilization band's mean from each aggregation,
// skipping bands with no observations in any column.
func bandRow(t *Table, band [2]int, cols []*stats.ByUtilization) {
	var n int64
	for _, c := range cols {
		n += c.NOver(band[0], band[1])
	}
	if n == 0 {
		return
	}
	cells := make([]any, 0, len(cols)+1)
	cells = append(cells, fmt.Sprintf("%d-%d%%", band[0], band[1]))
	for _, c := range cols {
		cells = append(cells, c.MeanOver(band[0], band[1]))
	}
	t.AddRow(cells...)
}

// Table2 renders the paper's Table 2 delay components from the core
// constants (they are code, not data, so this is a consistency check
// as much as a table).
func Table2() *Table {
	t := NewTable("Table 2: delay components (µs)", "component", "delay")
	t.AddRow("DIFS", int64(analysis.DelayDIFS))
	t.AddRow("SIFS", int64(analysis.DelaySIFS))
	t.AddRow("RTS", int64(analysis.DelayRTS))
	t.AddRow("CTS", int64(analysis.DelayCTS))
	t.AddRow("ACK", int64(analysis.DelayACK))
	t.AddRow("BEACON", int64(analysis.DelayBeacon))
	t.AddRow("BO", int64(analysis.DelayBO))
	t.AddRow("PLCP", int64(analysis.DelayPLCP))
	t.AddRow("DATA(1000B, 11Mbps)", int64(analysis.DataDelay(1000, phy.Rate11Mbps)))
	return t
}

// Figure4a renders per-AP frame counts for the topN most active APs.
func Figure4a(r *analysis.Result, topN int) *Table {
	t := NewTable("Figure 4(a): frames sent+received by most active APs",
		"rank", "ap", "frames")
	for i, s := range r.APs.TopN(topN) {
		t.AddRow(i+1, s.Addr.String(), s.Frames)
	}
	return t
}

// Figure4b renders the associated-user estimate per 30 s window.
func Figure4b(r *analysis.Result) *Table {
	t := NewTable("Figure 4(b): users per 30 s window", "window_start_s", "users")
	for _, u := range r.Users {
		t.AddRow(u.WindowStart, u.Users)
	}
	return t
}

// Figure4c renders per-AP unrecorded percentages for the topN APs.
func Figure4c(r *analysis.Result, topN int) *Table {
	t := NewTable("Figure 4(c): unrecorded frame percentage per AP",
		"rank", "ap", "frames", "unrecorded", "unrecorded_pct")
	for i, s := range r.APs.TopN(topN) {
		t.AddRow(i+1, s.Addr.String(), s.Frames, s.Unrecorded, s.UnrecordedPercent())
	}
	return t
}

// Figure5 renders the per-channel utilization time series as
// sparklines plus summary statistics.
func Figure5(r *analysis.Result) *Table {
	t := NewTable("Figure 5(a/b): per-channel utilization time series",
		"channel", "seconds", "mean_util", "sparkline")
	for _, ch := range []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11} {
		secs := r.PerChannel[ch]
		if len(secs) == 0 {
			continue
		}
		vals := make([]float64, len(secs))
		sum := 0.0
		for i, s := range secs {
			vals[i] = float64(s.Utilization)
			sum += vals[i]
		}
		t.AddRow(fmt.Sprintf("%d", int(ch)), len(secs), sum/float64(len(secs)), Sparkline(vals, 40))
	}
	return t
}

// Figure5c renders the utilization frequency histogram in 10-point
// buckets, with the mode called out.
func Figure5c(r *analysis.Result) *Table {
	t := NewTable("Figure 5(c): utilization frequency", "utilization", "seconds")
	for lo := 0; lo <= 100; lo += 10 {
		var c int64
		hi := lo + 9
		if lo == 100 {
			hi = 100
		}
		for u := lo; u <= hi && u <= 100; u++ {
			c += r.UtilHist.Count(u)
		}
		t.AddRow(fmt.Sprintf("%d-%d%%", lo, hi), c)
	}
	mode, n := r.UtilHist.Mode()
	t.AddRow("mode", fmt.Sprintf("%d%% (%d s)", mode, n))
	return t
}

// Figure6 renders throughput and goodput versus utilization.
func Figure6(r *analysis.Result) *Table {
	t := NewTable("Figure 6: throughput and goodput vs utilization",
		"utilization", "throughput_mbps", "goodput_mbps")
	for _, b := range FigureBands() {
		bandRow(t, b, []*stats.ByUtilization{&r.Throughput, &r.Goodput})
	}
	return t
}

// Figure7 renders RTS and CTS frames per second versus utilization.
func Figure7(r *analysis.Result) *Table {
	t := NewTable("Figure 7: RTS/CTS frames per second vs utilization",
		"utilization", "rts_per_s", "cts_per_s")
	for _, b := range FigureBands() {
		bandRow(t, b, []*stats.ByUtilization{&r.RTSPerSec, &r.CTSPerSec})
	}
	return t
}

// Figure8 renders the channel busy-time share of each rate.
func Figure8(r *analysis.Result) *Table {
	t := NewTable("Figure 8: channel busy-time (s) per rate vs utilization",
		"utilization", "1mbps", "2mbps", "5.5mbps", "11mbps")
	for _, b := range FigureBands() {
		bandRow(t, b, []*stats.ByUtilization{
			&r.BusyTimePerRate[0], &r.BusyTimePerRate[1],
			&r.BusyTimePerRate[2], &r.BusyTimePerRate[3],
		})
	}
	return t
}

// Figure9 renders bytes per second at each rate.
func Figure9(r *analysis.Result) *Table {
	t := NewTable("Figure 9: bytes per second per rate vs utilization",
		"utilization", "1mbps", "2mbps", "5.5mbps", "11mbps")
	for _, b := range FigureBands() {
		bandRow(t, b, []*stats.ByUtilization{
			&r.BytesPerRate[0], &r.BytesPerRate[1],
			&r.BytesPerRate[2], &r.BytesPerRate[3],
		})
	}
	return t
}

// figureSizeAcrossRates renders one size class's tx/s per rate
// (Figures 10 and 11).
func figureSizeAcrossRates(r *analysis.Result, title string, size analysis.SizeClass) *Table {
	t := NewTable(title, "utilization",
		fmt.Sprintf("%s-1", size), fmt.Sprintf("%s-2", size),
		fmt.Sprintf("%s-5.5", size), fmt.Sprintf("%s-11", size))
	cols := make([]*stats.ByUtilization, 4)
	for i, rt := range phy.Rates {
		ci, _ := analysis.Category{Size: size, Rate: rt}.Index()
		cols[i] = &r.TxPerCategory[ci]
	}
	for _, b := range FigureBands() {
		bandRow(t, b, cols)
	}
	return t
}

// Figure10 renders small-frame transmissions per second per rate.
func Figure10(r *analysis.Result) *Table {
	return figureSizeAcrossRates(r, "Figure 10: S-frame tx/s per rate vs utilization", analysis.SizeS)
}

// Figure11 renders extra-large-frame transmissions per second per rate.
func Figure11(r *analysis.Result) *Table {
	return figureSizeAcrossRates(r, "Figure 11: XL-frame tx/s per rate vs utilization", analysis.SizeXL)
}

// figureRateAcrossSizes renders one rate's tx/s per size class
// (Figures 12 and 13).
func figureRateAcrossSizes(r *analysis.Result, title string, rt phy.Rate) *Table {
	suffix := map[phy.Rate]string{phy.Rate1Mbps: "1", phy.Rate2Mbps: "2", phy.Rate5_5Mbps: "5.5", phy.Rate11Mbps: "11"}[rt]
	t := NewTable(title, "utilization", "S-"+suffix, "M-"+suffix, "L-"+suffix, "XL-"+suffix)
	cols := make([]*stats.ByUtilization, 4)
	for i := 0; i < 4; i++ {
		ci, _ := analysis.Category{Size: analysis.SizeClass(i), Rate: rt}.Index()
		cols[i] = &r.TxPerCategory[ci]
	}
	for _, b := range FigureBands() {
		bandRow(t, b, cols)
	}
	return t
}

// Figure12 renders 1 Mbps transmissions per second per size class.
func Figure12(r *analysis.Result) *Table {
	return figureRateAcrossSizes(r, "Figure 12: 1 Mbps tx/s per size class vs utilization", phy.Rate1Mbps)
}

// Figure13 renders 11 Mbps transmissions per second per size class.
func Figure13(r *analysis.Result) *Table {
	return figureRateAcrossSizes(r, "Figure 13: 11 Mbps tx/s per size class vs utilization", phy.Rate11Mbps)
}

// Figure14 renders first-attempt acknowledgments per second per rate.
func Figure14(r *analysis.Result) *Table {
	t := NewTable("Figure 14: first-attempt acked frames/s per rate vs utilization",
		"utilization", "1mbps", "2mbps", "5.5mbps", "11mbps")
	for _, b := range FigureBands() {
		bandRow(t, b, []*stats.ByUtilization{
			&r.FirstAckPerRate[0], &r.FirstAckPerRate[1],
			&r.FirstAckPerRate[2], &r.FirstAckPerRate[3],
		})
	}
	return t
}

// Figure15 renders acceptance delay for the four categories the paper
// plots: S-1, XL-1, S-11, XL-11.
func Figure15(r *analysis.Result) *Table {
	t := NewTable("Figure 15: acceptance delay (s) vs utilization",
		"utilization", "S-1", "XL-1", "S-11", "XL-11")
	idx := func(size analysis.SizeClass, rt phy.Rate) *stats.ByUtilization {
		ci, _ := analysis.Category{Size: size, Rate: rt}.Index()
		return &r.AcceptDelay[ci]
	}
	cols := []*stats.ByUtilization{
		idx(analysis.SizeS, phy.Rate1Mbps), idx(analysis.SizeXL, phy.Rate1Mbps),
		idx(analysis.SizeS, phy.Rate11Mbps), idx(analysis.SizeXL, phy.Rate11Mbps),
	}
	for _, b := range FigureBands() {
		bandRow(t, b, cols)
	}
	return t
}

// Summary renders headline numbers: totals, unrecorded estimate,
// derived congestion thresholds, class shares.
func Summary(r *analysis.Result) *Table {
	t := NewTable("Summary", "metric", "value")
	t.AddRow("frames analyzed", r.TotalFrames)
	t.AddRow("parse errors", r.ParseErrors)
	t.AddRow("APs discovered", r.APs.Count())
	t.AddRow("unrecorded frames (est.)", r.Unrecorded.Total())
	t.AddRow("unrecorded percent (Eq. 1)", r.Unrecorded.Percent())
	c := r.DeriveClassifier()
	t.AddRow("congestion knee (throughput peak)", c.Knee)
	shares := r.ClassShare(c)
	t.AddRow("share uncongested", shares[analysis.Uncongested])
	t.AddRow("share moderately congested", shares[analysis.Moderate])
	t.AddRow("share highly congested", shares[analysis.High])
	return t
}

// FirstFigure and LastFigure bound the numbers of the paper's figures
// that come from a trace; Figure renders each of them.
const (
	FirstFigure = 4
	LastFigure  = 15
)

// Figure returns the tables of the paper's Figure n, in paper order,
// or nil when n is not in FirstFigure..LastFigure.
func Figure(r *analysis.Result, n int) []*Table {
	switch n {
	case 4:
		return []*Table{Figure4a(r, 15), Figure4b(r), Figure4c(r, 15)}
	case 5:
		return []*Table{Figure5(r), Figure5c(r)}
	}
	if n < 6 || n > LastFigure {
		return nil
	}
	scatter := [...]func(*analysis.Result) *Table{
		Figure6, Figure7, Figure8, Figure9, Figure10,
		Figure11, Figure12, Figure13, Figure14, Figure15,
	}
	return []*Table{scatter[n-6](r)}
}

// AllFigures returns every table/figure in paper order, for the
// end-to-end reproduction command.
func AllFigures(r *analysis.Result) []*Table {
	tables := []*Table{Summary(r), Table2()}
	for n := FirstFigure; n <= LastFigure; n++ {
		tables = append(tables, Figure(r, n)...)
	}
	return tables
}

// Reliability renders the E-WIND beacon-reliability metric per AP
// (companion analysis; see analysis.MeasureBeaconReliability).
func Reliability(rel *analysis.BeaconReliability) *Table {
	t := NewTable(
		fmt.Sprintf("Beacon reliability per AP (%d s windows)", rel.WindowSeconds),
		"ap", "windows", "mean_ratio", "sparkline")
	for _, ap := range rel.APs() {
		series := rel.Series[ap]
		vals := make([]float64, len(series))
		sum := 0.0
		for i, p := range series {
			vals[i] = p.Ratio()
			sum += vals[i]
		}
		mean := 0.0
		if len(series) > 0 {
			mean = sum / float64(len(series))
		}
		t.AddRow(ap.String(), len(series), mean, Sparkline(vals, 30))
	}
	return t
}
