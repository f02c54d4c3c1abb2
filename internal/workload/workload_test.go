package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wlan80211/internal/capture"

	"wlan80211/internal/analysis"
	"wlan80211/internal/phy"
)

func TestSessionBuildValidation(t *testing.T) {
	s := DaySession()
	s.DurationSec = 0
	if _, err := s.Build(); err == nil {
		t.Error("zero-duration session must be rejected")
	}
}

func TestScale(t *testing.T) {
	s := DaySession()
	scaled := s.Scale(0.5)
	if scaled.DurationSec != s.DurationSec/2 || scaled.PeakUsers != s.PeakUsers/2 {
		t.Errorf("scale: %d/%d", scaled.DurationSec, scaled.PeakUsers)
	}
	// Floors.
	tiny := s.Scale(0.001)
	if tiny.DurationSec < 10 || tiny.PeakUsers < 4 {
		t.Errorf("floors: %d/%d", tiny.DurationSec, tiny.PeakUsers)
	}
	// A non-positive scale changes no size (Build then fails; see
	// TestInvalidScaleFailsBuild).
	if same := s.Scale(0); same.DurationSec != s.DurationSec {
		t.Error("zero scale must be identity")
	}
}

// TestInvalidScaleFailsBuild: every shape scaled by a factor that is
// not a finite number above 0 fails to build, naming the factor,
// instead of running at full or minimal size under that label — and a
// later valid factor does not clear it.
func TestInvalidScaleFailsBuild(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		builds := map[string]func() (*Built, error){
			"day":     DaySession().Scale(f).Build,
			"plenary": PlenarySession().Scale(f).Scale(0.1).Build,
			"sweep":   DefaultSweep().Scale(f).Build,
			"grid":    DefaultGrid().Scale(f).Build,
			"grid256": Grid256().Scale(f).Build,
			"ladder":  func() (*Built, error) { return BuildLadder(DefaultLadder(f)) },
		}
		for name, build := range builds {
			b, err := build()
			if err == nil || b != nil {
				t.Errorf("%s scaled by %v built (%v), want an error", name, f, err)
				continue
			}
			if want := fmt.Sprintf("scale %v is not", f); !strings.Contains(err.Error(), want) {
				t.Errorf("%s scaled by %v: error %q does not name the factor", name, f, err)
			}
		}
		if CheckScale(f) == nil {
			t.Errorf("CheckScale accepted %v", f)
		}
	}
	for _, f := range []float64{0.01, 1, 2} {
		if err := CheckScale(f); err != nil {
			t.Errorf("CheckScale(%v): %v", f, err)
		}
	}
}

func TestDaySessionProducesAnalyzableTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("session run is slow")
	}
	b, err := DaySession().Scale(0.25).Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := b.Run()
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	r := analysis.Analyze(recs)
	if r.TotalFrames == 0 {
		t.Fatal("nothing analyzed")
	}
	// All three channels must carry traffic (Table 1's channel plan).
	for _, ch := range phy.OrthogonalChannels {
		if len(r.PerChannel[ch]) == 0 {
			t.Errorf("no trace on %v", ch)
		}
	}
	// APs must be discovered from the trace.
	if r.APs.Count() < 3 {
		t.Errorf("discovered %d APs", r.APs.Count())
	}
	// Users must appear.
	if len(r.Users) == 0 {
		t.Error("no user windows")
	}
	peak := 0
	for _, u := range r.Users {
		if u.Users > peak {
			peak = u.Users
		}
	}
	if peak < 5 {
		t.Errorf("peak users = %d, expected a visible population", peak)
	}
}

func TestPlenaryBusierThanDay(t *testing.T) {
	if testing.Short() {
		t.Skip("session run is slow")
	}
	day, err := DaySession().Scale(0.25).Build()
	if err != nil {
		t.Fatal(err)
	}
	dayRes := analysis.Analyze(day.Run())
	plenary, err := PlenarySession().Scale(0.25).Build()
	if err != nil {
		t.Fatal(err)
	}
	plenRes := analysis.Analyze(plenary.Run())

	dayMode, _ := dayRes.UtilHist.Mode()
	plenMode, _ := plenRes.UtilHist.Mode()
	// The paper: day mode ≈55%, plenary mode ≈86%. The shapes must
	// order the same way: plenary busier than day.
	if plenMode <= dayMode {
		t.Errorf("plenary mode %d%% not above day mode %d%%", plenMode, dayMode)
	}
}

func TestSweepCoversUtilizationRange(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run is slow")
	}
	sw := DefaultSweep()
	sw.StepSec = 3
	b, err := sw.Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := b.Run()
	if len(recs) == 0 {
		t.Fatal("empty sweep trace")
	}
	if b.Net.Stats.DataSent == 0 || b.Sniffers[0].Captured == 0 {
		t.Fatal("no traffic")
	}
	r := analysis.Analyze(recs)
	// The sweep must produce seconds both below 60% and above 75%
	// utilization (so scatter figures have range to plot).
	lo, hi := false, false
	for _, s := range r.PerChannel[sw.Channel] {
		if s.Utilization > 0 && s.Utilization < 60 {
			lo = true
		}
		if s.Utilization > 75 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Errorf("sweep utilization coverage: lo=%v hi=%v", lo, hi)
	}
	// RTS users were configured: RTS frames must appear in the trace.
	var rts bool
	for _, s := range r.PerChannel[sw.Channel] {
		if s.RTS > 0 {
			rts = true
			break
		}
	}
	if !rts {
		t.Error("no RTS frames in sweep trace")
	}
}

func TestSweepDefaults(t *testing.T) {
	sw := Sweep{Stations: 1, StepSec: 1}
	b, err := sw.Build() // nil factory, zero channel/room/load default
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	if sw.DurationSec() != 1 {
		t.Errorf("DurationSec = %d", sw.DurationSec())
	}
}

func TestShiftTrace(t *testing.T) {
	in := []capture.Record{{Time: 5}, {Time: 9}}
	out := ShiftTrace(in, 100)
	if out[0].Time != 105 || out[1].Time != 109 {
		t.Errorf("shift: %+v", out)
	}
	if in[0].Time != 5 {
		t.Error("input mutated")
	}
}
