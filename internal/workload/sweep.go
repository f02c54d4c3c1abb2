package workload

import (
	"fmt"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
)

// Sweep drives a single cell through rising offered load so its
// per-second utilization covers the paper's 30–99% analysis range.
// Stations activate one at a time every StepSec seconds, each
// generating at a fixed per-station Load, so utilization climbs in
// small increments instead of jumping over the mid-band; the run ends
// with TailSec seconds at full population (deep congestion). Every
// scatter figure (6–15) is regenerated from sweep traces: the figures
// condition on utilization, so sweeps provide samples at every
// congestion level from light to collapse.
type Sweep struct {
	// Stations in the cell; one activates every StepSec.
	Stations int
	// StepSec is the activation interval in seconds.
	StepSec int
	// TailSec extends the run at full population.
	TailSec int
	// Load is the per-station traffic multiplier.
	Load float64
	// RTSFraction of stations use RTS/CTS.
	RTSFraction float64
	// RoomSize is the cell edge length in meters; larger rooms create
	// weaker links and more rate diversity.
	RoomSize float64
	// RateFactory supplies rate adaptation (default: the mixed
	// ARF/AARF/SNR population, reflecting the paper's hardware
	// diversity).
	RateFactory rate.Factory
	// Channel to run on.
	Channel phy.Channel
	// Seed for determinism.
	Seed int64

	// scaleErr is CheckScale's error for an invalid Scale factor;
	// Build returns it.
	scaleErr error
}

// DefaultSweep returns the sweep used by the figure benches.
func DefaultSweep() Sweep {
	return Sweep{
		Stations:    24,
		StepSec:     5,
		TailSec:     30,
		Load:        5.0,
		RTSFraction: 0.1,
		RoomSize:    24,
		RateFactory: rate.NewMixedFactory(),
		Channel:     phy.Channel1,
		Seed:        7,
	}
}

// DurationSec returns the sweep's total simulated time.
func (s Sweep) DurationSec() int { return s.Stations*s.StepSec + s.TailSec }

// Scale shrinks or grows the sweep's population and full-load tail
// together (the per-station load and activation cadence stay fixed,
// so the utilization ramp keeps its slope). A factor CheckScale
// rejects makes Build fail.
func (s Sweep) Scale(f float64) Sweep {
	if err := CheckScale(f); err != nil {
		s.scaleErr = err
		return s
	}
	s.Stations = max(int(float64(s.Stations)*f+0.5), 2)
	s.TailSec = max(int(float64(s.TailSec)*f+0.5), 5)
	return s
}

// Build constructs the sweep's network, AP, sniffer, and activation
// schedule without running it. Call Run or RunStream to execute.
func (s Sweep) Build() (*Built, error) {
	if s.scaleErr != nil {
		return nil, s.scaleErr
	}
	if s.DurationSec() <= 0 {
		return nil, fmt.Errorf("workload: sweep has no duration")
	}
	if s.RateFactory == nil {
		s.RateFactory = rate.NewMixedFactory()
	}
	if s.Channel == 0 {
		s.Channel = phy.Channel1
	}
	if s.RoomSize <= 0 {
		s.RoomSize = 24
	}
	if s.Load <= 0 {
		s.Load = 5
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = s.Seed
	net := sim.New(cfg)
	mid := s.RoomSize / 2
	ap := net.AddAP("ap", sim.Position{X: mid, Y: mid}, s.Channel)
	sn := sniffer.New(sniffer.DefaultConfig("S", 1, sim.Position{X: mid, Y: mid + 2}, s.Channel))
	net.AddTap(sn)

	rng := net.Rand()
	mix := sim.DefaultMix()
	for i := 0; i < s.Stations; i++ {
		pos := sim.Position{X: rng.Float64() * s.RoomSize, Y: rng.Float64() * s.RoomSize}
		st := net.AddStation(fmt.Sprintf("u%d", i), pos, ap, s.RateFactory)
		if rng.Float64() < s.RTSFraction {
			st.UseRTS = true
		}
		p := net.PickProfile(mix)
		at := phy.Micros(i*s.StepSec) * phy.MicrosPerSecond
		load := s.Load
		net.Schedule(at, func() { net.StartTraffic(st, p, load) })
	}
	return &Built{
		Net:      net,
		APs:      []*sim.Node{ap},
		Sniffers: []*sniffer.Sniffer{sn},
		Duration: phy.Micros(s.DurationSec()) * phy.MicrosPerSecond,
	}, nil
}

// ShiftTrace returns a copy of recs with all timestamps offset by d,
// so traces from independent runs can be merged into one analysis
// without overlapping seconds.
func ShiftTrace(recs []capture.Record, d phy.Micros) []capture.Record {
	out := make([]capture.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Time += d
	}
	return out
}

// BuildLadder builds a ladder of sweep variants as one run whose
// rungs execute back to back in disjoint time epochs. The default
// ladder mixes cell sizes, loads, and adapter populations: a small
// mixed-adapter cell covers light utilization, a dense lightly-loaded
// SNR-adapter cell holds the 30–70% mid-band stably (no ARF collapse
// spiral), and a saturated mixed-adapter cell reaches the collapse
// regime — together covering the paper's full 30–99% analysis range
// the way its day and plenary data sets did.
func BuildLadder(ladder []Sweep) (*Built, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("workload: ladder has no sweeps")
	}
	var first *Built
	next := &first
	for _, sw := range ladder {
		b, err := sw.Build()
		if err != nil {
			return nil, err
		}
		*next = b
		next = &b.next
	}
	return first, nil
}

// MultiSweep runs a ladder of sweeps (see BuildLadder) and returns
// its merged trace; a ladder that does not build yields no records.
func MultiSweep(ladder []Sweep) []capture.Record {
	b, err := BuildLadder(ladder)
	if err != nil {
		return nil
	}
	return b.Run()
}

// DefaultLadder returns the sweep ladder the figure benches use.
// scale below 1 shrinks every run for quicker benches; above 1 grows
// the populations and tails (matching Session.Scale's behaviour, so
// matrix rows labelled with a scale ran at that scale). A scale
// CheckScale rejects makes every rung's Build fail.
func DefaultLadder(scale float64) []Sweep {
	shrink := func(s Sweep, stations int, tail int) Sweep {
		s.Stations, s.TailSec = stations, tail
		return s.Scale(scale)
	}
	low := DefaultSweep()
	low.Seed = 11
	low = shrink(low, 8, 20)

	mid := DefaultSweep()
	mid.RateFactory = rate.NewSNRFactory()
	mid.StepSec = 4
	mid.Load = 0.8
	mid.RoomSize = 30
	mid.Seed = 112
	mid = shrink(mid, 40, 30)

	// A second stable cell pushed to the edge of saturation fills the
	// 60–85% band with pre-collapse (high-throughput) seconds, the
	// regime just below the paper's 84% knee.
	upper := DefaultSweep()
	upper.RateFactory = rate.NewSNRFactory()
	upper.StepSec = 3
	upper.Load = 1.0
	upper.RoomSize = 30
	upper.Seed = 313
	upper = shrink(upper, 44, 30)

	high := DefaultSweep()
	high.Seed = 213
	high = shrink(high, 24, 40)

	return []Sweep{low, mid, upper, high}
}
