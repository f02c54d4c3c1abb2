package analysis

import (
	"fmt"
	"sort"

	"wlan80211/internal/phy"
)

// Metric is one composable stage of the streaming pipeline. The
// Analyzer instantiates a fresh Metric per channel shard; the shard's
// decoder calls OnFrame for every record (in time order) and OnSecond
// when a one-second interval closes, including empty gap seconds.
// Finalize merges the stage's accumulated state into the shared
// Result; shards finalize sequentially in ascending channel order, so
// Finalize needs no locking and merged aggregates are deterministic.
type Metric interface {
	// OnFrame observes one decoded, annotated record. The event
	// pointer and the frame ev.Parsed.Frame points to are reused
	// between frames: both are valid only during the call, and a
	// stage that retains the frame must copy it. The event's address
	// IDs (TAID, RAID, MissingID) are dense per channel shard and
	// valid for the whole run, so a stage may key retained per-address
	// state by them; the addresses stay on the parsed frame.
	OnFrame(ev *FrameEvent)
	// OnSecond closes second sec (frames observed since the previous
	// OnSecond belong to it).
	OnSecond(sec int64)
	// Finalize merges this shard's state into the result.
	Finalize(r *Result)
}

// Factory builds one per-shard Metric instance.
type Factory func() Metric

// metricDef is one registry entry.
type metricDef struct {
	name    string
	desc    string
	factory Factory
}

// registry holds the registered stages in registration order; the
// built-in paper stages register first, in figure order.
var registry []metricDef

// Register adds a metric stage under a unique name so it can be
// selected by Options.Metrics (and wlanalyze's -metrics flag). The
// factory is invoked once per channel shard per Analyzer.
func Register(name, desc string, f Factory) {
	for _, d := range registry {
		if d.name == name {
			panic(fmt.Sprintf("analysis: metric %q already registered", name))
		}
	}
	registry = append(registry, metricDef{name: name, desc: desc, factory: f})
}

// Names returns every registered metric name in registration order
// (built-ins first, in paper-figure order).
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.name
	}
	return out
}

// Describe returns the one-line description of a registered metric
// ("" if unknown).
func Describe(name string) string {
	for _, d := range registry {
		if d.name == name {
			return d.desc
		}
	}
	return ""
}

// lookup resolves names to registry entries, preserving registration
// order and ignoring duplicates. nil or empty selects every
// registered metric.
func lookup(names []string) ([]metricDef, error) {
	if len(names) == 0 {
		return registry, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		found := false
		for _, d := range registry {
			if d.name == n {
				found = true
				break
			}
		}
		if !found {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("analysis: unknown metric %q (have %v)", n, known)
		}
		want[n] = true
	}
	var out []metricDef
	for _, d := range registry {
		if want[d.name] {
			out = append(out, d)
		}
	}
	return out, nil
}

// secondUtil tracks the open second's channel busy-time so a stage can
// key its per-second samples by that second's utilization percentage —
// the x axis of every scatter figure. Embed it, call observe from
// OnFrame and flush from OnSecond.
type secondUtil struct {
	cbt phy.Micros
}

func (s *secondUtil) observe(ev *FrameEvent) { s.cbt += ev.CBT }

// flush returns the closing second's utilization and resets the
// accumulator for the next second.
func (s *secondUtil) flush() int {
	u := UtilizationPercent(s.cbt)
	s.cbt = 0
	return u
}
