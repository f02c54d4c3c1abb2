package experiment

import (
	"fmt"

	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/workload"
)

// This file adapts the workload package's experiment shapes — Session
// (day/plenary), Sweep (single-cell load ramp), sweep ladders, and
// multi-cell Grids — to the Scenario interface, and registers the
// built-in variants.
//
// The paper-reproduction scenarios place at most one sniffer per
// channel; the grid scenarios place several, producing cross-sniffer
// duplicate observations. The engine's Reorder window drops those
// exactly as the materialized path's capture.Merge does, so both
// kinds stream bit-identically to their materialized reference.

func init() {
	Register("day", func(seed int64, scale float64) Scenario {
		s := workload.DaySession()
		if seed != 0 {
			s.Seed = seed
		}
		return NewSession(s.Scale(scale))
	})
	Register("plenary", func(seed int64, scale float64) Scenario {
		s := workload.PlenarySession()
		if seed != 0 {
			s.Seed = seed
		}
		return NewSession(s.Scale(scale))
	})
	Register("sweep", func(seed int64, scale float64) Scenario {
		s := workload.DefaultSweep()
		if seed != 0 {
			s.Seed = seed
		}
		return NewSweep(s.Scale(scale))
	})
	Register("ladder", func(seed int64, scale float64) Scenario {
		ladder := workload.DefaultLadder(scale)
		if seed != 0 {
			for i := range ladder {
				ladder[i].Seed += seed
			}
		}
		return NewLadder("ladder", ladder)
	})
	Register("grid", func(seed int64, scale float64) Scenario {
		g := workload.DefaultGrid()
		if seed != 0 {
			g.Seed = seed
		}
		return NewGrid("grid", g.Scale(scale))
	})
	Register("grid9", func(seed int64, scale float64) Scenario {
		g := workload.DenseGrid()
		if seed != 0 {
			g.Seed = seed
		}
		return NewGrid("grid9", g.Scale(scale))
	})
	Register("grid256", func(seed int64, scale float64) Scenario {
		g := workload.Grid256()
		if seed != 0 {
			g.Seed = seed
		}
		return NewGrid("grid256", g.Scale(scale))
	})
}

// NewSession wraps a workload session (day/plenary shape) as a
// Scenario.
func NewSession(s workload.Session) Scenario { return sessionScenario{s} }

type sessionScenario struct{ s workload.Session }

func (c sessionScenario) Name() string { return c.s.Name }

func (c sessionScenario) Params() []Param {
	return []Param{
		{"duration_s", fmt.Sprint(c.s.DurationSec)},
		{"peak_users", fmt.Sprint(c.s.PeakUsers)},
		{"aps_per_channel", fmt.Sprint(c.s.APsPerChannel)},
		{"sniffers", fmt.Sprint(len(c.s.Sniffers))},
		{"load_scale", fmt.Sprint(c.s.LoadScale)},
		{"seed", fmt.Sprint(c.s.Seed)},
	}
}

func (c sessionScenario) Build() (Run, error) {
	b, err := c.s.Build()
	if err != nil {
		return nil, err
	}
	return sessionRun{b}, nil
}

type sessionRun struct{ b *workload.Built }

func (r sessionRun) Stream(sink Sink) error {
	r.b.RunStream(sink)
	return nil
}

// NewSweep wraps a single utilization sweep as a Scenario.
func NewSweep(s workload.Sweep) Scenario { return sweepScenario{s} }

type sweepScenario struct{ s workload.Sweep }

func (c sweepScenario) Name() string { return "sweep" }

func (c sweepScenario) Params() []Param {
	return []Param{
		{"stations", fmt.Sprint(c.s.Stations)},
		{"step_s", fmt.Sprint(c.s.StepSec)},
		{"tail_s", fmt.Sprint(c.s.TailSec)},
		{"load", fmt.Sprint(c.s.Load)},
		{"seed", fmt.Sprint(c.s.Seed)},
	}
}

func (c sweepScenario) Build() (Run, error) {
	return sweepRun{c.s}, nil
}

type sweepRun struct{ s workload.Sweep }

func (r sweepRun) Stream(sink Sink) error {
	r.s.RunStream(sink)
	return nil
}

// NewLadder wraps a ladder of sweeps run back to back in disjoint
// time epochs (the MultiSweep shape behind Figures 6–15) as a single
// Scenario whose stream covers the paper's full utilization range.
func NewLadder(name string, ladder []workload.Sweep) Scenario {
	return ladderScenario{name, ladder}
}

type ladderScenario struct {
	name   string
	ladder []workload.Sweep
}

func (c ladderScenario) Name() string { return c.name }

func (c ladderScenario) Params() []Param {
	total := 0
	for _, sw := range c.ladder {
		total += sw.DurationSec()
	}
	return []Param{
		{"rungs", fmt.Sprint(len(c.ladder))},
		{"total_duration_s", fmt.Sprint(total)},
	}
}

func (c ladderScenario) Build() (Run, error) {
	if len(c.ladder) == 0 {
		return nil, fmt.Errorf("experiment: ladder %q has no sweeps", c.name)
	}
	return ladderRun{c.ladder}, nil
}

type ladderRun struct{ ladder []workload.Sweep }

// Stream runs the rungs sequentially, shifting each rung's timestamps
// into its own epoch (exactly workload.MultiSweep's offsets) so the
// combined stream is one gap-free record sequence.
func (r ladderRun) Stream(sink Sink) error {
	var offset phy.Micros
	for _, sw := range r.ladder {
		shift := offset
		sw.RunStream(func(rec capture.Record) {
			rec.Time += shift
			sink(rec)
		})
		offset += phy.Micros(sw.DurationSec()+1) * phy.MicrosPerSecond
	}
	return nil
}

// NewGrid wraps a multi-cell grid (interference, mobility, mixed b/g,
// multi-sniffer channels) as a Scenario under the given registry name.
func NewGrid(name string, g workload.Grid) Scenario { return gridScenario{name, g} }

type gridScenario struct {
	name string
	g    workload.Grid
}

func (c gridScenario) Name() string { return c.name }

func (c gridScenario) Params() []Param {
	return []Param{
		{"cells", fmt.Sprintf("%dx%d", c.g.Rows, c.g.Cols)},
		{"duration_s", fmt.Sprint(c.g.DurationSec)},
		{"stations_per_cell", fmt.Sprint(c.g.StationsPerCell)},
		{"mobile_stations", fmt.Sprint(c.g.MobileStations)},
		{"g_fraction", fmt.Sprint(c.g.GFraction)},
		{"sniffers_per_channel", fmt.Sprint(c.g.SniffersPerChannel)},
		{"load", fmt.Sprint(c.g.Load)},
		{"seed", fmt.Sprint(c.g.Seed)},
	}
}

func (c gridScenario) Build() (Run, error) {
	b, err := c.g.Build()
	if err != nil {
		return nil, err
	}
	return gridRun{b}, nil
}

type gridRun struct{ b *workload.GridBuilt }

func (r gridRun) Stream(sink Sink) error {
	r.b.RunStream(sink)
	return nil
}
