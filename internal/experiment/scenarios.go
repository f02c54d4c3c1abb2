package experiment

import (
	"fmt"

	"wlan80211/internal/workload"
)

// This file names the workload package's experiment shapes — Session
// (day/plenary), Sweep (single-cell load ramp), sweep ladders, and
// multi-cell Grids, which all build into one workload.Built — as
// Scenarios, and registers the built-in variants.
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

// scenario is every built-in Scenario: a registry name, the knobs it
// reports, and the workload constructor it runs.
type scenario struct {
	name   string
	params []Param
	build  func() (*workload.Built, error)
}

func (c scenario) Name() string    { return c.name }
func (c scenario) Params() []Param { return c.params }

func (c scenario) Build() (Run, error) {
	b, err := c.build()
	if err != nil {
		return nil, err // a nil Run, not a nil *Built inside one
	}
	return b, nil
}

// NewSession wraps a workload session (day/plenary shape) as a
// Scenario.
func NewSession(s workload.Session) Scenario {
	return scenario{s.Name, []Param{
		{"duration_s", fmt.Sprint(s.DurationSec)},
		{"peak_users", fmt.Sprint(s.PeakUsers)},
		{"aps_per_channel", fmt.Sprint(s.APsPerChannel)},
		{"sniffers", fmt.Sprint(len(s.Sniffers))},
		{"load_scale", fmt.Sprint(s.LoadScale)},
		{"seed", fmt.Sprint(s.Seed)},
	}, s.Build}
}

// NewSweep wraps a single utilization sweep as a Scenario.
func NewSweep(s workload.Sweep) Scenario {
	return scenario{"sweep", []Param{
		{"stations", fmt.Sprint(s.Stations)},
		{"step_s", fmt.Sprint(s.StepSec)},
		{"tail_s", fmt.Sprint(s.TailSec)},
		{"load", fmt.Sprint(s.Load)},
		{"seed", fmt.Sprint(s.Seed)},
	}, s.Build}
}

// NewLadder wraps a ladder of sweeps run back to back in disjoint
// time epochs (workload.BuildLadder, the shape behind Figures 6–15)
// as a single Scenario whose stream covers the paper's full
// utilization range.
func NewLadder(name string, ladder []workload.Sweep) Scenario {
	total := 0
	for _, sw := range ladder {
		total += sw.DurationSec()
	}
	return scenario{name, []Param{
		{"rungs", fmt.Sprint(len(ladder))},
		{"total_duration_s", fmt.Sprint(total)},
	}, func() (*workload.Built, error) { return workload.BuildLadder(ladder) }}
}

// NewGrid wraps a multi-cell grid (interference, mobility, mixed b/g,
// multi-sniffer channels) as a Scenario under the given registry name.
func NewGrid(name string, g workload.Grid) Scenario {
	return scenario{name, []Param{
		{"cells", fmt.Sprintf("%dx%d", g.Rows, g.Cols)},
		{"duration_s", fmt.Sprint(g.DurationSec)},
		{"stations_per_cell", fmt.Sprint(g.StationsPerCell)},
		{"mobile_stations", fmt.Sprint(g.MobileStations)},
		{"g_fraction", fmt.Sprint(g.GFraction)},
		{"sniffers_per_channel", fmt.Sprint(g.SniffersPerChannel)},
		{"load", fmt.Sprint(g.Load)},
		{"seed", fmt.Sprint(g.Seed)},
	}, g.Build}
}
