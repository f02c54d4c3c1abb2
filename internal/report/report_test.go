package report

import (
	"bytes"
	"strings"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/dot11"
	"wlan80211/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("title", "col1", "longer_column")
	tb.AddRow("a", 1)
	tb.AddRow("bcdef", 2.5)
	out := tb.String()
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "longer_column") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "2.5") {
		t.Error("missing float cell")
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	// Alignment: every line after the title should be equally long or
	// at least non-empty.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("lines = %d", len(lines))
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{{1.5, "1.5"}, {2.0, "2"}, {0.125, "0.125"}, {3.1000, "3.1"}}
	for _, c := range cases {
		if got := trimFloat(c.v); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddRow(`quote"inside`, 7)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"quote""inside"`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("missing header line: %s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0] == s[9] {
		t.Error("ramp should differ at extremes")
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty input must render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Error("zero width must render empty")
	}
	// All zeros: must not panic, renders blanks.
	z := Sparkline([]float64{0, 0, 0}, 3)
	if z != "   " {
		t.Errorf("zeros = %q", z)
	}
}

func TestHistogramRender(t *testing.T) {
	var buf bytes.Buffer
	Histogram(&buf, []string{"a", "bb"}, []int64{2, 4}, 8)
	out := buf.String()
	if !strings.Contains(out, "####") {
		t.Errorf("no bars: %s", out)
	}
	if !strings.Contains(out, "bb") {
		t.Error("missing label")
	}
	// Zero width defaults.
	buf.Reset()
	Histogram(&buf, []string{"x"}, []int64{1}, 0)
	if buf.Len() == 0 {
		t.Error("default width render empty")
	}
}

func TestTable2(t *testing.T) {
	tb := Table2()
	out := tb.String()
	for _, want := range []string{"DIFS", "50", "SIFS", "10", "RTS", "352", "PLCP", "192"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigureBands(t *testing.T) {
	bands := FigureBands()
	if bands[0] != [2]int{30, 34} {
		t.Errorf("first band = %v", bands[0])
	}
	last := bands[len(bands)-1]
	if last[1] != 99 {
		t.Errorf("last band = %v", last)
	}
	// Contiguous coverage.
	for i := 1; i < len(bands); i++ {
		if bands[i][0] != bands[i-1][1]+1 {
			t.Errorf("gap between %v and %v", bands[i-1], bands[i])
		}
	}
}

func TestFiguresOnSyntheticResult(t *testing.T) {
	r := &analysis.Result{UtilHist: stats.NewHistogram(101)}
	// Populate a couple of utilization cells so figures have rows.
	for u := 40; u <= 90; u += 10 {
		r.UtilHist.Add(u)
		r.Throughput.Add(u, float64(u)/20)
		r.Goodput.Add(u, float64(u)/25)
		r.RTSPerSec.Add(u, 5)
		r.CTSPerSec.Add(u, 4)
		for i := 0; i < 4; i++ {
			r.BusyTimePerRate[i].Add(u, 0.1*float64(i+1))
			r.BytesPerRate[i].Add(u, 1000*float64(i+1))
			r.FirstAckPerRate[i].Add(u, float64(i))
		}
		for i := 0; i < 16; i++ {
			r.TxPerCategory[i].Add(u, float64(i))
			r.AcceptDelay[i].Add(u, 0.01)
		}
	}
	figs := AllFigures(r)
	if len(figs) != 17 {
		t.Fatalf("figures = %d, want 17", len(figs))
	}
	for i, f := range figs {
		out := f.String()
		if out == "" {
			t.Errorf("figure %d rendered empty", i)
		}
	}
	// Figure 6 must contain a row for the 40-44 band.
	if !strings.Contains(Figure6(r).String(), "40-44%") {
		t.Error("Figure 6 missing 40-44% band")
	}
	// Bands with no data are skipped.
	if strings.Contains(Figure6(r).String(), "35-39%") {
		t.Error("Figure 6 must skip empty bands")
	}
}

func TestReliabilityTable(t *testing.T) {
	rel := &analysis.BeaconReliability{
		WindowSeconds: 10,
		Series: map[dot11.Addr][]analysis.ReliabilityPoint{
			dot11.AddrFromUint64(1): {
				{WindowStart: 0, Received: 90, Expected: 97},
				{WindowStart: 10, Received: 40, Expected: 97},
			},
		},
	}
	out := Reliability(rel).String()
	if !strings.Contains(out, "mean_ratio") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "0.67") {
		t.Errorf("mean ratio missing: %s", out)
	}
}
