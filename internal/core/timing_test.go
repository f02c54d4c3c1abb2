package core

import (
	"testing"
	"testing/quick"

	"wlan80211/internal/analysis"
	"wlan80211/internal/phy"
)

// TestTable2Values pins the paper's Table 2 exactly.
func TestTable2Values(t *testing.T) {
	if analysis.DelayDIFS != 50 || analysis.DelaySIFS != 10 || analysis.DelayRTS != 352 ||
		analysis.DelayCTS != 304 || analysis.DelayACK != 304 || analysis.DelayBeacon != 304 ||
		analysis.DelayBO != 0 || analysis.DelayPLCP != 192 {
		t.Error("Table 2 constants drifted")
	}
}

func TestDataDelayFormula(t *testing.T) {
	// DDATA = 192 + 8*(34+size)/rate.
	cases := []struct {
		size int
		r    phy.Rate
		want phy.Micros
	}{
		{1000, phy.Rate1Mbps, 192 + 8*1034},          // 8464
		{1000, phy.Rate2Mbps, 192 + 8*1034/2},        // 4328
		{1466, phy.Rate11Mbps, 192 + (8*1500+10)/11}, // ceil(12000/11)=1091
		{0, phy.Rate1Mbps, 192 + 8*34},
	}
	for _, c := range cases {
		if got := analysis.DataDelay(c.size, c.r); got != c.want {
			t.Errorf("DataDelay(%d, %v) = %d, want %d", c.size, c.r, got, c.want)
		}
	}
	if analysis.DataDelay(-10, phy.Rate1Mbps) != analysis.DataDelay(0, phy.Rate1Mbps) {
		t.Error("negative size must clamp")
	}
	if analysis.DataDelay(100, phy.Rate(0)) != analysis.DelayPLCP {
		t.Error("invalid rate must degrade to PLCP only")
	}
}

func TestCBTEquations(t *testing.T) {
	// Equation 2: DIFS + DDATA.
	if got := analysis.CBTData(500, phy.Rate11Mbps); got != 50+analysis.DataDelay(500, phy.Rate11Mbps) {
		t.Errorf("CBTData = %d", got)
	}
	// Equations 3–6.
	if analysis.CBTRTS() != 352 {
		t.Errorf("CBTRTS = %d", analysis.CBTRTS())
	}
	if analysis.CBTCTS() != 10+304 {
		t.Errorf("CBTCTS = %d", analysis.CBTCTS())
	}
	if analysis.CBTACK() != 10+304 {
		t.Errorf("CBTACK = %d", analysis.CBTACK())
	}
	if analysis.CBTBeacon() != 50+304 {
		t.Errorf("CBTBeacon = %d", analysis.CBTBeacon())
	}
}

func TestUtilizationPercent(t *testing.T) {
	cases := []struct {
		cbt  phy.Micros
		want int
	}{
		{0, 0}, {500_000, 50}, {1_000_000, 100}, {1_500_000, 100},
		{-5, 0}, {839_999, 83}, {840_000, 84},
	}
	for _, c := range cases {
		if got := analysis.UtilizationPercent(c.cbt); got != c.want {
			t.Errorf("UtilizationPercent(%d) = %d, want %d", c.cbt, got, c.want)
		}
	}
}

// Property: CBT of data frames is monotone in size and antitone in
// rate, the two facts Sec 5.1 derives from Table 2.
func TestCBTMonotonicity(t *testing.T) {
	f := func(n uint16) bool {
		s := int(n % 2000)
		if analysis.CBTData(s, phy.Rate1Mbps) < analysis.CBTData(s, phy.Rate11Mbps) {
			return false
		}
		return analysis.CBTData(s+1, phy.Rate11Mbps) >= analysis.CBTData(s, phy.Rate11Mbps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeClassOf(t *testing.T) {
	cases := []struct {
		n    int
		want analysis.SizeClass
	}{{0, analysis.SizeS}, {400, analysis.SizeS}, {401, analysis.SizeM}, {800, analysis.SizeM}, {801, analysis.SizeL}, {1200, analysis.SizeL}, {1201, analysis.SizeXL}, {3000, analysis.SizeXL}}
	for _, c := range cases {
		if got := analysis.SizeClassOf(c.n); got != c.want {
			t.Errorf("SizeClassOf(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSizeClassString(t *testing.T) {
	want := []string{"S", "M", "L", "XL"}
	for i, w := range want {
		if got := analysis.SizeClass(i).String(); got != w {
			t.Errorf("String(%d) = %q", i, got)
		}
	}
	if analysis.SizeClass(9).String() == "" {
		t.Error("unknown class must still format")
	}
}

func TestCategoryNaming(t *testing.T) {
	c := analysis.CategoryOf(300, phy.Rate11Mbps)
	if c.String() != "S-11" {
		t.Errorf("got %q, want S-11", c.String())
	}
	c = analysis.CategoryOf(1400, phy.Rate1Mbps)
	if c.String() != "XL-1" {
		t.Errorf("got %q, want XL-1", c.String())
	}
	c = analysis.CategoryOf(600, phy.Rate5_5Mbps)
	if c.String() != "M-5.5" {
		t.Errorf("got %q, want M-5.5", c.String())
	}
	bad := analysis.Category{Size: analysis.SizeS, Rate: phy.Rate(7)}
	if bad.String() != "S-?" {
		t.Errorf("invalid rate category = %q", bad.String())
	}
}

func TestCategoryIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, c := range analysis.AllCategories() {
		i, ok := c.Index()
		if !ok {
			t.Fatalf("category %v has no index", c)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
		if back := analysis.CategoryFromIndex(i); back != c {
			t.Errorf("round trip %v → %d → %v", c, i, back)
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d categories, want 16", len(seen))
	}
	if _, ok := (analysis.Category{Rate: phy.Rate(3)}).Index(); ok {
		t.Error("invalid rate must have no index")
	}
}

func TestClassifier(t *testing.T) {
	c := analysis.PaperClassifier()
	cases := []struct {
		u    int
		want analysis.Class
	}{{0, analysis.Uncongested}, {29, analysis.Uncongested}, {30, analysis.Moderate}, {84, analysis.Moderate}, {85, analysis.High}, {100, analysis.High}}
	for _, tc := range cases {
		if got := c.Classify(tc.u); got != tc.want {
			t.Errorf("Classify(%d) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if analysis.Uncongested.String() != "uncongested" ||
		analysis.Moderate.String() != "moderately congested" ||
		analysis.High.String() != "highly congested" {
		t.Error("class names drifted")
	}
	if analysis.Class(9).String() == "" {
		t.Error("unknown class must format")
	}
}
