// Package experiment is the scenario-driven parallel experiment
// engine: the layer that turns single simulator runs into the
// aggregate, multi-run results the paper reports (means over many
// sniffer-hours at different congestion levels).
//
// It contributes three pieces:
//
//   - A Scenario abstraction (name, parameters, build → runnable)
//     over the workload package's Session, Sweep, sweep-ladder, and
//     Grid shapes, which all build into one workload.Built, with a
//     registry so CLIs can select scenarios by name and a Matrix
//     expander for seeds × scales × scenario variants.
//
//   - A streaming sim→analysis bridge: a run emits capture records as
//     frames are sniffed (sniffer emit mode), a bounded reordering
//     stage restores start-time order, and records feed
//     analysis.Analyzer.Feed directly — no materialized
//     []capture.Record, no post-hoc capture.Merge, per-run peak
//     memory independent of trace length. The streamed Result is
//     bit-identical to analyzing the materialized, merged trace.
//
//   - One ordered worker pool (bounded by GOMAXPROCS) behind
//     Runner.Execute that executes an expanded matrix in every run
//     mode — collect, reduce, journaled campaign — folding runs in
//     spec order into deterministic mean/stddev rows keyed by
//     scenario+scale.
package experiment

import (
	"fmt"
	"math"
	"sort"

	"wlan80211/internal/capture"
)

// Sink receives one capture record. A record's Frame bytes may alias
// a buffer the producer reuses: they are valid only during the call,
// and a Sink that retains them must copy.
type Sink func(rec capture.Record)

// Param is one scenario knob, for reports and JSON output.
type Param struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Scenario is one runnable experiment configuration: a named,
// parameterized recipe that builds into a Run. The built-ins wrap the
// workload package's session, sweep, ladder, and grid shapes; Register
// makes new ones selectable by name.
type Scenario interface {
	// Name labels the scenario family ("day", "sweep", ...).
	Name() string
	// Params describes the concrete knobs, in display order.
	Params() []Param
	// Build constructs the simulation. Each Run executes once.
	Build() (Run, error)
}

// Run is one constructed simulation, ready to execute exactly once:
// the streaming half of *workload.Built, which every built-in
// Scenario builds.
type Run interface {
	// RunStream executes the simulation, feeding every captured
	// record to emit at capture time. Records arrive in observation
	// order — non-decreasing transmission-end time — so a record's
	// start timestamp may trail an earlier-delivered one by up to a
	// frame airtime; Reorder restores start-time order. Sniffers
	// sharing a channel each deliver their copy of a transmission;
	// Reorder keeps one. Frame bytes alias reused buffers, valid only
	// during the emit call.
	RunStream(emit func(capture.Record))
}

// Factory builds a scenario variant for one matrix cell. A zero seed
// keeps the scenario's default seed; scale is the workload Scale
// factor (1.0 = full size).
type Factory func(seed int64, scale float64) Scenario

// registry maps scenario names to factories, in registration order.
var registry []struct {
	name    string
	factory Factory
}

// Register adds a scenario factory under a unique name so Matrix and
// the CLIs can select it. Built-ins ("day", "plenary", "sweep",
// "ladder") register at init.
func Register(name string, f Factory) {
	for _, e := range registry {
		if e.name == name {
			panic(fmt.Sprintf("experiment: scenario %q already registered", name))
		}
	}
	registry = append(registry, struct {
		name    string
		factory Factory
	}{name, f})
}

// Names returns the registered scenario names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// CheckScale rejects a scale factor that is not finite and above 0:
// a scenario's Scale keeps its full size for one at or below 0, and no
// factory sizes a NaN or infinite one sensibly, so such a label would
// not describe the run it names.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("experiment: scale %g is not a finite number above 0", scale)
	}
	return nil
}

// New builds the named scenario variant from the registry, at a scale
// CheckScale accepts.
func New(name string, seed int64, scale float64) (Scenario, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	for _, e := range registry {
		if e.name == name {
			return e.factory(seed, scale), nil
		}
	}
	known := Names()
	sort.Strings(known)
	return nil, fmt.Errorf("experiment: unknown scenario %q (have %v)", name, known)
}
