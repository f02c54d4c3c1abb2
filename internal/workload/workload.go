// Package workload builds the experiment scenarios of the
// reproduction: scaled models of the IETF62 day and plenary sessions
// (Table 1, Figures 2–3) and the load-sweep used to drive the channel
// through the paper's 30–99% utilization range for Figures 6–15.
//
// The real sessions spanned hours with hundreds of users; simulating
// that verbatim is possible but slow, so each scenario takes a Scale
// knob. The utilization-conditioned statistics the paper reports are
// per-second averages, so shorter sessions with proportionally fewer
// users sample the same curves with less data.
package workload

import (
	"fmt"
	"math"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
)

// Session describes one measurement session (Table 1).
type Session struct {
	// Name labels the data set ("day", "plenary").
	Name string
	// DurationSec is the simulated session length in seconds.
	DurationSec int
	// PeakUsers is the maximum concurrent associated users.
	PeakUsers int
	// APsPerChannel places this many APs on each of channels 1/6/11.
	APsPerChannel int
	// RoomW/RoomH bound the venue in meters (Figures 2–3: ballroom
	// ~210' × 120' ≈ 64 m × 37 m plus conference rooms).
	RoomW, RoomH float64
	// Sniffers are the capture points.
	Sniffers []SnifferSpec
	// RTSFraction of users enable RTS/CTS (the paper saw minimal,
	// non-zero use: 40k RTS vs 28.6M data frames).
	RTSFraction float64
	// LoadScale multiplies all traffic generators.
	LoadScale float64
	// RateFactory supplies per-station rate adaptation (default:
	// the mixed ARF/AARF/SNR population).
	RateFactory rate.Factory
	// Controller enables the Airespace-style channel/load balancing.
	Controller bool
	// PathLossExponent / ShadowingSigmaDB override the radio
	// environment when non-zero. The day session uses a lossier
	// environment than the single-hall default: its users sat in
	// several rooms behind walls and people, which is what produced
	// the paper's 3–15% unrecorded rates (Figure 4c).
	PathLossExponent float64
	ShadowingSigmaDB float64
	// Seed makes the scenario deterministic.
	Seed int64

	// scaleErr is CheckScale's error for an invalid Scale factor;
	// Build returns it.
	scaleErr error
}

// CheckScale rejects a scale factor that is not a finite number above
// 0, the one scale rule of every shape: no size is sensible for such a
// factor, so Session, Sweep and Grid keep their sizes under it and
// their Build returns this error rather than run a size the factor's
// label does not describe.
func CheckScale(f float64) error {
	if !(f > 0) || math.IsInf(f, 1) {
		return fmt.Errorf("workload: scale %g is not a finite number above 0", f)
	}
	return nil
}

// SnifferSpec places one sniffer.
type SnifferSpec struct {
	Name    string
	Pos     sim.Position
	Channel phy.Channel
}

// DaySession returns a scaled model of the March 9 day session:
// sniffers spread at three locations in one meeting room, users
// distributed across several rooms (so a sizeable fraction of traffic
// is distant from the sniffers), moderate load.
func DaySession() Session {
	return Session{
		Name:          "day",
		DurationSec:   120,
		PeakUsers:     90,
		APsPerChannel: 2,
		RoomW:         64, RoomH: 37,
		Sniffers: []SnifferSpec{
			{Name: "A", Pos: sim.Position{X: 12, Y: 30}, Channel: phy.Channel1},
			{Name: "B", Pos: sim.Position{X: 22, Y: 18}, Channel: phy.Channel6},
			{Name: "C", Pos: sim.Position{X: 12, Y: 8}, Channel: phy.Channel11},
		},
		RTSFraction:      0.02,
		LoadScale:        2.0,
		RateFactory:      rate.NewMixedFactory(),
		Controller:       true,
		PathLossExponent: 3.7,
		ShadowingSigmaDB: 6,
		Seed:             62,
	}
}

// PlenarySession returns a scaled model of the March 10 plenary: all
// users congregate in one ballroom, the three sniffers co-located,
// heavy load (the 86%-utilization mode of Figure 5c).
func PlenarySession() Session {
	return Session{
		Name:          "plenary",
		DurationSec:   120,
		PeakUsers:     120,
		APsPerChannel: 2,
		RoomW:         45, RoomH: 30,
		Sniffers: []SnifferSpec{
			{Name: "A", Pos: sim.Position{X: 22, Y: 15}, Channel: phy.Channel1},
			{Name: "B", Pos: sim.Position{X: 23, Y: 15}, Channel: phy.Channel6},
			{Name: "C", Pos: sim.Position{X: 24, Y: 15}, Channel: phy.Channel11},
		},
		RTSFraction: 0.02,
		LoadScale:   4.5,
		RateFactory: rate.NewMixedFactory(),
		Controller:  true,
		Seed:        63,
	}
}

// Scale shrinks or grows a session's duration and population together.
// A factor CheckScale rejects makes Build fail.
func (s Session) Scale(f float64) Session {
	if err := CheckScale(f); err != nil {
		s.scaleErr = err
		return s
	}
	s.DurationSec = int(float64(s.DurationSec) * f)
	if s.DurationSec < 10 {
		s.DurationSec = 10
	}
	s.PeakUsers = int(float64(s.PeakUsers) * f)
	if s.PeakUsers < 4 {
		s.PeakUsers = 4
	}
	return s
}

// Built is a constructed scenario ready to run: one simulated network
// with its APs, roaming mobiles and sniffers, run for Duration. Every
// scenario shape builds into it. A sweep ladder is a chain of Builts,
// one per rung (see BuildLadder); its fields describe the first rung.
type Built struct {
	Net      *sim.Network
	APs      []*sim.Node
	Mobiles  []*sim.Node
	Sniffers []*sniffer.Sniffer
	// Duration is the simulated run length.
	Duration phy.Micros
	// next is the ladder rung that runs after this one.
	next *Built
}

// Build constructs the network, APs, sniffers, and user-churn
// schedule. Call Run to execute it.
func (s Session) Build() (*Built, error) {
	if s.scaleErr != nil {
		return nil, s.scaleErr
	}
	if s.DurationSec <= 0 {
		return nil, fmt.Errorf("workload: session %q has no duration", s.Name)
	}
	if s.RateFactory == nil {
		s.RateFactory = rate.NewMixedFactory()
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = s.Seed
	if s.PathLossExponent > 0 {
		cfg.Env.PathLossExponent = s.PathLossExponent
	}
	if s.ShadowingSigmaDB > 0 {
		cfg.Env.ShadowingSigmaDB = s.ShadowingSigmaDB
	}
	net := sim.New(cfg)

	// Place APs row by row across the venue, striping channels.
	var aps []*sim.Node
	total := s.APsPerChannel * 3
	for i := 0; i < total; i++ {
		ch := phy.OrthogonalChannels[i%3]
		x := s.RoomW * (0.2 + 0.6*float64(i)/float64(max(total-1, 1)))
		y := s.RoomH * (0.25 + 0.5*float64(i%2))
		ap := net.AddAP(fmt.Sprintf("ap-%d", i), sim.Position{X: x, Y: y}, ch)
		aps = append(aps, ap)
	}

	b := &Built{Net: net, APs: aps, Duration: phy.Micros(s.DurationSec) * phy.MicrosPerSecond}
	for i, sp := range s.Sniffers {
		sn := sniffer.New(sniffer.DefaultConfig(sp.Name, i+1, sp.Pos, sp.Channel))
		net.AddTap(sn)
		b.Sniffers = append(b.Sniffers, sn)
	}
	if s.Controller {
		net.NewController(aps).Start()
	}
	s.scheduleChurn(b)
	return b, nil
}

// scheduleChurn arrives and departs users along a triangular ramp
// peaking mid-session (the shape of Figure 4b's curves).
func (s Session) scheduleChurn(b *Built) {
	net := b.Net
	rng := net.Rand()
	mix := sim.DefaultMix()
	dur := phy.Micros(s.DurationSec) * phy.MicrosPerSecond

	type user struct {
		station *sim.Node
		gen     *sim.Generator
	}
	var active []user

	// Initial population: half the peak joins at t≈0.
	spawn := func() {
		i := len(active)
		ap := b.APs[i%len(b.APs)]
		pos := sim.Position{
			X: ap.Pos.X + (rng.Float64()-0.5)*s.RoomW*0.4,
			Y: ap.Pos.Y + (rng.Float64()-0.5)*s.RoomH*0.4,
		}
		st := net.AddStation(fmt.Sprintf("u%d", i), pos, ap, s.RateFactory)
		if rng.Float64() < s.RTSFraction {
			st.UseRTS = true
		}
		gen := net.StartTraffic(st, net.PickProfile(mix), s.LoadScale)
		active = append(active, user{st, gen})
	}
	for i := 0; i < s.PeakUsers/2; i++ {
		spawn()
	}
	// Ramp up to the peak through the first half, drain through the
	// second half (churn drives the utilization sweep of Figure 5).
	half := s.PeakUsers - s.PeakUsers/2
	for i := 0; i < half; i++ {
		at := dur / 2 * phy.Micros(i+1) / phy.Micros(half+1)
		net.Schedule(at, spawn)
	}
	leave := s.PeakUsers / 2
	for i := 0; i < leave; i++ {
		at := dur/2 + dur/2*phy.Micros(i+1)/phy.Micros(leave+1)
		net.Schedule(at, func() {
			if len(active) == 0 {
				return
			}
			u := active[len(active)-1]
			active = active[:len(active)-1]
			u.gen.Stop()
			net.Disassociate(u.station)
		})
	}
}

// rungs calls run for b and every ladder rung after it, in order, with
// the offset that shifts the rung's timestamps into its own epoch:
// each epoch starts one second after the previous rung's run ends, so
// the rungs' traces join without overlapping seconds. A scenario that
// is not a ladder is one rung at offset 0.
func (b *Built) rungs(run func(r *Built, offset phy.Micros)) {
	var offset phy.Micros
	for r := b; r != nil; r = r.next {
		run(r, offset)
		offset += r.Duration + phy.MicrosPerSecond
	}
}

// Run executes the scenario and returns the merged, time-sorted trace
// from all sniffers, with cross-sniffer duplicates dropped (the
// materialized reference the streaming path must match bit for bit).
func (b *Built) Run() []capture.Record {
	var traces [][]capture.Record
	b.rungs(func(r *Built, offset phy.Micros) {
		r.Net.RunFor(r.Duration)
		for _, sn := range r.Sniffers {
			recs := sn.Records()
			if offset != 0 {
				recs = ShiftTrace(recs, offset)
			}
			traces = append(traces, recs)
		}
	})
	return capture.Merge(traces...)
}

// RunStream executes the scenario, streaming every record any sniffer
// captures to emit at capture time instead of materializing traces —
// peak memory is independent of the session length. Records arrive in
// observation order (non-decreasing transmission-end time across all
// sniffers); each record's Frame aliases a simulator buffer valid
// only during the emit call. Sniffers sharing a channel each deliver
// their copy of a transmission. The experiment package's Reorder
// window turns this stream into the time-sorted, deduplicated order
// Run produces.
func (b *Built) RunStream(emit func(capture.Record)) {
	b.rungs(func(r *Built, offset phy.Micros) {
		e := emit
		if offset != 0 {
			e = func(rec capture.Record) {
				rec.Time += offset
				emit(rec)
			}
		}
		for _, sn := range r.Sniffers {
			sn.SetEmit(e)
		}
		r.Net.RunFor(r.Duration)
	})
}

// MultiSniffer reports whether any rung has ≥2 sniffers on one
// channel — when true, a streamed run contains cross-sniffer
// duplicates that must be dropped to match Run's merged trace.
func (b *Built) MultiSniffer() bool {
	multi := false
	b.rungs(func(r *Built, _ phy.Micros) {
		perChannel := make(map[phy.Channel]int)
		for _, sn := range r.Sniffers {
			perChannel[sn.Config().Channel]++
			multi = multi || perChannel[sn.Config().Channel] >= 2
		}
	})
	return multi
}
