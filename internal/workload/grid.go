package workload

import (
	"fmt"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
	"wlan80211/internal/sim"
	"wlan80211/internal/sniffer"
)

// Grid describes a multi-cell deployment: an N×M grid of AP cells with
// 1/6/11 channel reuse (so co-channel cells interfere), a mixed
// 802.11b / 802.11b-g station population, mobile stations that roam
// between cells, and several sniffers per channel whose overlapping
// observations exercise the streaming same-air dedup. It goes beyond
// the paper's single-hall scenarios toward the multi-cell enterprise
// deployments its conclusions point at.
type Grid struct {
	// Rows and Cols shape the AP grid.
	Rows, Cols int
	// Spacing is the distance in meters between adjacent AP centers;
	// stations scatter within ±40% of it around their AP.
	Spacing float64
	// Channels is the reuse pattern striped across cells in row-major
	// order (default: the orthogonal 1/6/11 set). A 2×2 grid therefore
	// puts two cells on one channel — co-channel interference.
	Channels []phy.Channel
	// StationsPerCell is the static population of each cell.
	StationsPerCell int
	// MobileStations roam the whole grid on waypoint paths,
	// reassociating to the nearest AP every RoamSec.
	MobileStations int
	// GFraction of stations are 802.11b/g dual-mode; the rest are
	// b-only (and blind to OFDM NAVs — mixed-mode interference).
	GFraction float64
	// Load is the per-station traffic multiplier.
	Load float64
	// DurationSec is the simulated run length.
	DurationSec int
	// SniffersPerChannel places this many sniffers on every channel in
	// use; ≥2 produces the duplicate observations the dedup collapses.
	SniffersPerChannel int
	// RoamSec is the mobile reassociation check cadence.
	RoamSec int
	// SpeedMPS is the mobile walking speed.
	SpeedMPS float64
	// RTSFraction of stations use RTS/CTS.
	RTSFraction float64
	// Seed makes the scenario deterministic.
	Seed int64
	// Env overrides the radio environment (nil keeps the default).
	// Campus-scale grids use CampusEnvironment: deterministic
	// (shadowing-free) radios engage the simulator's spatial culling,
	// which is what makes 16×16 feasible.
	Env *phy.Environment
}

// DefaultGrid returns the 2×2 reference grid: four cells on three
// channels (one channel reused), half the population dual-mode, four
// roaming mobiles, and two sniffers per channel.
func DefaultGrid() Grid {
	return Grid{
		Rows: 2, Cols: 2,
		Spacing:            22,
		StationsPerCell:    6,
		MobileStations:     4,
		GFraction:          0.5,
		Load:               2.0,
		DurationSec:        40,
		SniffersPerChannel: 2,
		RoamSec:            2,
		SpeedMPS:           3,
		RTSFraction:        0.05,
		Seed:               17,
	}
}

// DenseGrid returns a 3×3 grid with every channel reused three times —
// the heavier interference variant.
func DenseGrid() Grid {
	g := DefaultGrid()
	g.Rows, g.Cols = 3, 3
	g.StationsPerCell = 4
	g.MobileStations = 6
	g.Spacing = 18
	g.Seed = 19
	return g
}

// CampusEnvironment is the outdoor/large-venue radio model of the
// campus-scale grids: steeper log-distance attenuation (exponent 4 —
// cluttered propagation between buildings and halls) and no lognormal
// shadowing. σ = 0 makes the radio fully deterministic, which lets
// the simulator cull interference spatially (sim sparse mode) instead
// of evaluating every node pair per transmission.
func CampusEnvironment() phy.Environment {
	env := phy.DefaultEnvironment()
	env.PathLossExponent = 4.0
	env.ShadowingSigmaDB = 0
	return env
}

// Grid256 returns the campus-scale 16×16 grid: 256 APs on the 1/6/11
// reuse stripe, 1000+ stations (half dual-mode), two dozen mobiles
// roaming the whole campus, and two sniffers per channel. It runs
// under CampusEnvironment, so the simulator serves it from sparse
// spatially-culled link rows — per-transmission work scales with the
// ~100-node interference neighborhood, not the ~1300-node campus.
func Grid256() Grid {
	env := CampusEnvironment()
	return Grid{
		Rows: 16, Cols: 16,
		Spacing:            40,
		StationsPerCell:    4,
		MobileStations:     24,
		GFraction:          0.5,
		Load:               1.0,
		DurationSec:        12,
		SniffersPerChannel: 2,
		RoamSec:            2,
		SpeedMPS:           3,
		RTSFraction:        0.05,
		Seed:               29,
		Env:                &env,
	}
}

// Scale shrinks or grows the grid's duration and population together,
// matching Session.Scale's behaviour.
func (g Grid) Scale(f float64) Grid {
	if f <= 0 {
		return g
	}
	g.DurationSec = int(float64(g.DurationSec) * f)
	if g.DurationSec < 10 {
		g.DurationSec = 10
	}
	g.StationsPerCell = int(float64(g.StationsPerCell)*f + 0.5)
	if g.StationsPerCell < 2 {
		g.StationsPerCell = 2
	}
	g.MobileStations = int(float64(g.MobileStations)*f + 0.5)
	if g.MobileStations < 1 {
		g.MobileStations = 1
	}
	return g
}

// Cells returns the number of AP cells.
func (g Grid) Cells() int { return g.Rows * g.Cols }

// cellChannel is the reuse pattern: channels striped row-major.
func (g Grid) cellChannel(cell int) phy.Channel {
	if len(g.Channels) == 0 {
		return phy.OrthogonalChannels[cell%len(phy.OrthogonalChannels)]
	}
	return g.Channels[cell%len(g.Channels)]
}

// GridBuilt is a constructed grid scenario ready to run.
type GridBuilt struct {
	Net      *sim.Network
	APs      []*sim.Node
	Mobiles  []*sim.Node
	Sniffers []*sniffer.Sniffer
	Grid     Grid
}

// Build constructs the grid's network: APs, static and mobile
// stations, roaming schedule, and sniffers. Call Run or RunStream to
// execute it.
func (g Grid) Build() (*GridBuilt, error) {
	if g.Rows < 1 || g.Cols < 1 {
		return nil, fmt.Errorf("workload: grid needs ≥1×1 cells, got %d×%d", g.Rows, g.Cols)
	}
	if g.DurationSec <= 0 {
		return nil, fmt.Errorf("workload: grid has no duration")
	}
	if g.Spacing <= 0 {
		g.Spacing = 22
	}
	if g.Load <= 0 {
		g.Load = 1
	}
	if g.SniffersPerChannel < 1 {
		g.SniffersPerChannel = 1
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = g.Seed
	if g.Env != nil {
		cfg.Env = *g.Env
	}
	net := sim.New(cfg)
	b := &GridBuilt{Net: net, Grid: g}

	// APs: all dual-mode (enterprise b/g hardware), SNR-adapting over
	// the OFDM ladder toward dual-mode clients.
	gAPFactory := rate.NewSNRFactoryLadder(rate.LadderBG)
	for cell := 0; cell < g.Cells(); cell++ {
		r, c := cell/g.Cols, cell%g.Cols
		center := sim.Position{X: (float64(c) + 0.5) * g.Spacing, Y: (float64(r) + 0.5) * g.Spacing}
		ap := net.AddAP(fmt.Sprintf("gap-%d", cell), center, g.cellChannel(cell))
		ap.GCapable = true
		ap.SetGAdapterFactory(gAPFactory)
		b.APs = append(b.APs, ap)
	}

	// Stations: static per-cell population plus grid-roaming mobiles,
	// each b-only or dual-mode by the GFraction draw.
	rng := net.Rand()
	mix := sim.DefaultMix()
	bFactory := rate.NewMixedFactory()
	gFactory := rate.NewMixedFactoryLadder(rate.LadderBG)
	addStation := func(name string, pos sim.Position, ap *sim.Node) *sim.Node {
		gcap := rng.Float64() < g.GFraction
		f := bFactory
		if gcap {
			f = gFactory
		}
		st := net.AddStation(name, pos, ap, f)
		st.GCapable = gcap
		if rng.Float64() < g.RTSFraction {
			st.UseRTS = true
		}
		net.StartTraffic(st, net.PickProfile(mix), g.Load)
		return st
	}
	for cell := 0; cell < g.Cells(); cell++ {
		ap := b.APs[cell]
		for i := 0; i < g.StationsPerCell; i++ {
			pos := sim.Position{
				X: ap.Pos.X + (rng.Float64()-0.5)*g.Spacing*0.8,
				Y: ap.Pos.Y + (rng.Float64()-0.5)*g.Spacing*0.8,
			}
			addStation(fmt.Sprintf("g%d-u%d", cell, i), pos, ap)
		}
	}
	w := float64(g.Cols) * g.Spacing
	h := float64(g.Rows) * g.Spacing
	for i := 0; i < g.MobileStations; i++ {
		home := b.APs[i%len(b.APs)]
		st := addStation(fmt.Sprintf("gm-%d", i), home.Pos, home)
		// A private triangle of waypoints across the whole grid keeps
		// the mobile crossing cell borders for the entire run.
		pts := []sim.Position{
			{X: rng.Float64() * w, Y: rng.Float64() * h},
			{X: rng.Float64() * w, Y: rng.Float64() * h},
			{X: rng.Float64() * w, Y: rng.Float64() * h},
		}
		net.StartWaypoints(st, g.SpeedMPS, phy.MicrosPerSecond/2, pts...)
		b.Mobiles = append(b.Mobiles, st)
	}

	// Roaming: every RoamSec, each mobile reassociates to the nearest
	// AP (1 m hysteresis keeps equidistant pairs from flapping). The
	// lookup comes from the network's spatial index — O(neighborhood)
	// per mobile instead of scanning all APs, with the same
	// creation-order tie-break as the linear scan.
	if g.RoamSec > 0 && len(b.Mobiles) > 0 {
		interval := phy.Micros(g.RoamSec) * phy.MicrosPerSecond
		var roam func()
		roam = func() {
			for _, st := range b.Mobiles {
				best := net.NearestAP(st.Pos)
				if best != nil && best != st.AP && best.Pos.Distance(st.Pos)+1 < st.AP.Pos.Distance(st.Pos) {
					net.Reassociate(st, best)
				}
			}
			net.Schedule(net.Now()+interval, roam)
		}
		net.Schedule(interval, roam)
	}

	// Sniffers: SniffersPerChannel per channel in use, spread over the
	// cells sharing that channel (offset so co-located pairs still see
	// slightly different radio links). IDs follow registration order —
	// the order Merge and the streaming window both key their stable
	// tie-breaks on.
	id := 0
	for _, ch := range g.usedChannels() {
		var centers []sim.Position
		for cell := 0; cell < g.Cells(); cell++ {
			if g.cellChannel(cell) == ch {
				centers = append(centers, b.APs[cell].Pos)
			}
		}
		for k := 0; k < g.SniffersPerChannel; k++ {
			base := centers[k%len(centers)]
			pos := sim.Position{X: base.X + 2 + float64(k), Y: base.Y - 2}
			id++
			sn := sniffer.New(sniffer.DefaultConfig(fmt.Sprintf("G%d", id), id, pos, ch))
			net.AddTap(sn)
			b.Sniffers = append(b.Sniffers, sn)
		}
	}
	return b, nil
}

// usedChannels returns the distinct channels of the reuse pattern in
// first-use order.
func (g Grid) usedChannels() []phy.Channel {
	var out []phy.Channel
	for cell := 0; cell < g.Cells(); cell++ {
		ch := g.cellChannel(cell)
		seen := false
		for _, o := range out {
			if o == ch {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, ch)
		}
	}
	return out
}

// Run executes the grid and returns the merged, deduplicated,
// time-sorted trace from all sniffers (the materialized reference the
// streaming path must match bit for bit).
func (b *GridBuilt) Run() []capture.Record {
	b.Net.RunFor(phy.Micros(b.Grid.DurationSec) * phy.MicrosPerSecond)
	traces := make([][]capture.Record, len(b.Sniffers))
	for i, sn := range b.Sniffers {
		traces[i] = sn.Records()
	}
	return capture.Merge(traces...)
}

// MultiSniffer reports whether any channel has ≥2 sniffers — when
// true, a streamed run contains cross-sniffer duplicates that must be
// dropped to match Run's merged trace.
func (b *GridBuilt) MultiSniffer() bool {
	perChannel := make(map[phy.Channel]int)
	for _, sn := range b.Sniffers {
		perChannel[sn.Config().Channel]++
		if perChannel[sn.Config().Channel] >= 2 {
			return true
		}
	}
	return false
}

// RunStream executes the grid, streaming every record any sniffer
// captures to emit at capture time; nothing is materialized. Unlike
// the single-sniffer-per-channel scenarios, the stream contains
// cross-sniffer duplicates — the experiment package's Reorder window
// drops them as it restores start-time order.
func (b *GridBuilt) RunStream(emit func(capture.Record)) {
	for _, sn := range b.Sniffers {
		sn.SetEmit(emit)
	}
	b.Net.RunFor(phy.Micros(b.Grid.DurationSec) * phy.MicrosPerSecond)
}
