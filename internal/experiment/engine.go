package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wlan80211/internal/analysis"
	"wlan80211/internal/report"
	"wlan80211/internal/stats"
)

// Spec is one expanded matrix cell: a concrete scenario variant plus
// the seed and scale it was expanded with.
type Spec struct {
	// Name is the registry name the cell was expanded from (the
	// aggregation key together with Scale).
	Name  string
	Seed  int64
	Scale float64
	// Scenario is the built variant.
	Scenario Scenario
}

// Matrix describes a seeds × scales × scenarios experiment grid.
type Matrix struct {
	// Scenarios are registry names (see Names).
	Scenarios []string
	// Seeds are per-run seeds; 0 keeps a scenario's default seed.
	Seeds []int64
	// Scales are workload scale factors (1.0 = full size).
	Scales []float64
}

// Expand resolves the grid into specs, ordered scenario-major, then
// scale, then seed — so runs of one aggregate group are contiguous.
func (m Matrix) Expand() ([]Spec, error) {
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	scales := m.Scales
	if len(scales) == 0 {
		scales = []float64{1.0}
	}
	var specs []Spec
	for _, name := range m.Scenarios {
		for _, scale := range scales {
			for _, seed := range seeds {
				sc, err := New(name, seed, scale)
				if err != nil {
					return nil, err
				}
				specs = append(specs, Spec{Name: name, Seed: seed, Scale: scale, Scenario: sc})
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiment: empty matrix (no scenarios)")
	}
	return specs, nil
}

// Summary is the per-run headline extraction aggregated across seeds.
type Summary struct {
	Frames         int64   `json:"frames"`
	ParseErrors    int64   `json:"parse_errors"`
	ChannelSeconds int     `json:"channel_seconds"`
	DataFrames     int64   `json:"data_frames"`
	BeaconFrames   int64   `json:"beacon_frames"`
	PeakUsers      int     `json:"peak_users"`
	ModalUtilPct   int     `json:"modal_util_pct"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	GoodputMbps    float64 `json:"goodput_mbps"`
	UnrecordedPct  float64 `json:"unrecorded_pct"`
}

// Summarize extracts a run's Summary from its analysis Result.
func Summarize(r *analysis.Result) Summary {
	s := Summary{
		Frames:         r.TotalFrames,
		ParseErrors:    r.ParseErrors,
		ThroughputMbps: r.Throughput.MeanOver(0, 100),
		GoodputMbps:    r.Goodput.MeanOver(0, 100),
		UnrecordedPct:  r.Unrecorded.Percent(),
	}
	for _, secs := range r.PerChannel {
		s.ChannelSeconds += len(secs)
		for i := range secs {
			s.DataFrames += int64(secs[i].Data)
			s.BeaconFrames += int64(secs[i].Beacon)
		}
	}
	if r.UtilHist != nil && r.UtilHist.N() > 0 {
		s.ModalUtilPct, _ = r.UtilHist.Mode()
	}
	for _, u := range r.Users {
		if u.Users > s.PeakUsers {
			s.PeakUsers = u.Users
		}
	}
	return s
}

// summaryFields is the ordered field list aggregation reduces; names
// double as table headers and JSON keys.
var summaryFields = []struct {
	Name string
	Get  func(Summary) float64
}{
	{"frames", func(s Summary) float64 { return float64(s.Frames) }},
	{"data_frames", func(s Summary) float64 { return float64(s.DataFrames) }},
	{"channel_seconds", func(s Summary) float64 { return float64(s.ChannelSeconds) }},
	{"peak_users", func(s Summary) float64 { return float64(s.PeakUsers) }},
	{"modal_util_pct", func(s Summary) float64 { return float64(s.ModalUtilPct) }},
	{"throughput_mbps", func(s Summary) float64 { return s.ThroughputMbps }},
	{"goodput_mbps", func(s Summary) float64 { return s.GoodputMbps }},
	{"unrecorded_pct", func(s Summary) float64 { return s.UnrecordedPct }},
}

// SummaryFieldNames returns the aggregated field names in order.
func SummaryFieldNames() []string {
	out := make([]string, len(summaryFields))
	for i, f := range summaryFields {
		out[i] = f.Name
	}
	return out
}

// RunResult is one completed (or failed) matrix cell.
type RunResult struct {
	Spec    Spec
	Summary Summary
	// Result is the run's full analysis (nil when Err is set). Its
	// size is bounded by per-second state, not trace length, so
	// keeping every run's Result is cheap.
	Result *analysis.Result
	Err    error
}

// runOne executes one cell: build, stream through the Reorder window
// into a fresh sequential analyzer (stages selected by metrics),
// summarize. The window also drops cross-sniffer duplicates exactly
// as the materialized path's capture.Merge does, so multi-sniffer
// runs need no stage of their own. The analyzer runs unsharded —
// cross-run parallelism already saturates the pool, and the
// sequential path is the one that never retains frame bytes, which is
// what lets the whole pipeline run without materializing.
//
// With hashed set (campaign cells), a TraceHasher sits between the
// reorder release and the analyzer and the run's trace hash is
// returned alongside the result; collect and reduce runs skip it.
func runOne(spec Spec, metrics []string, hashed bool) (RunResult, string) {
	run, err := spec.Scenario.Build()
	if err != nil {
		return RunResult{Spec: spec, Err: err}, ""
	}
	a, err := analysis.New(analysis.Options{Metrics: metrics})
	if err != nil {
		return RunResult{Spec: spec, Err: err}, ""
	}
	feed := Sink(a.Feed)
	var th *TraceHasher
	if hashed {
		th = NewTraceHasher(feed)
		feed = th.Add
	}
	ro := NewReorder(feed)
	if err := run.Stream(ro.Add); err != nil {
		return RunResult{Spec: spec, Err: err}, ""
	}
	ro.Flush()
	r := a.Result()
	rr := RunResult{Spec: spec, Summary: Summarize(r), Result: r}
	if th == nil {
		return rr, ""
	}
	return rr, th.Sum()
}

// runOrdered is the one worker pool every run mode executes on. It
// runs jobs 0..n-1 on up to workers goroutines (<=0 means GOMAXPROCS)
// and hands each output to fold strictly in job order, on the calling
// goroutine, so everything fold accumulates — every mean and stddev
// bit, every placed record — is independent of worker count and
// completion order.
//
// Dispatch is windowed: job i is not handed out until job i-workers
// has been folded, which caps the completed-but-unfolded buffer at
// the worker count by construction (a slow head-of-line job may
// briefly idle the other workers — the price of a retention bound
// that does not degrade to O(jobs)). peak is that buffer's high-water
// mark.
//
// Dispatch stops once ctx is done or fold returns true; in-flight
// jobs still complete and fold (a run is not interruptible
// mid-stream). dispatched is how many jobs ran, always a prefix
// [0, dispatched) of the job indices.
func runOrdered[T any](ctx context.Context, n, workers int, run func(i int) T, fold func(i int, out T) (stop bool)) (dispatched, peak int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	type done struct {
		i   int
		out T
	}
	jobs := make(chan int)
	results := make(chan done)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results <- done{i, run(i)}
			}
		}()
	}

	pending := make(map[int]T, workers)
	sent, next, stopped := 0, 0, false
	for next < sent || (!stopped && sent < n) {
		var d done
		if !stopped && sent < n && sent < next+workers {
			// Checked first: select picks among ready cases at
			// random, so a free worker must not win over an
			// already-done context.
			if ctx.Err() != nil {
				stopped = true
				continue
			}
			select {
			case jobs <- sent:
				sent++
				continue
			case d = <-results:
			case <-ctx.Done():
				stopped = true
				continue
			}
		} else {
			d = <-results
		}
		pending[d.i] = d.out
		peak = max(peak, len(pending))
		for {
			out, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if fold(next, out) {
				stopped = true
			}
			next++
		}
	}
	close(jobs)
	wg.Wait()
	return sent, peak
}

// FieldStat is one aggregated summary field.
type FieldStat struct {
	Name   string  `json:"name"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// Aggregated is the reduction of one scenario+scale group across its
// seeds: mean and stddev of every summary field.
type Aggregated struct {
	Scenario string      `json:"scenario"`
	Scale    float64     `json:"scale"`
	Runs     int         `json:"runs"`
	Errors   int         `json:"errors"`
	Fields   []FieldStat `json:"fields"`
}

// Field returns the named field's stats (zero FieldStat if absent).
func (a Aggregated) Field(name string) FieldStat {
	for _, f := range a.Fields {
		if f.Name == name {
			return f
		}
	}
	return FieldStat{}
}

// AggregateTable renders aggregates as one mean±stddev row per
// scenario+scale group — the table both CLIs print.
func AggregateTable(title string, aggs []Aggregated) *report.Table {
	headers := append([]string{"scenario", "scale", "runs"}, SummaryFieldNames()...)
	t := report.NewTable(title, headers...)
	for _, a := range aggs {
		cells := []any{a.Scenario, a.Scale, a.Runs}
		for _, f := range a.Fields {
			cells = append(cells, report.MeanStddev(f.Mean, f.Stddev))
		}
		t.AddRow(cells...)
	}
	return t
}

// Aggregate groups run results by scenario+scale (in first-seen
// order, which for Matrix.Expand output is expansion order) and
// reduces each summary field with a Welford accumulator. Failed runs
// count in Errors and contribute no samples.
func Aggregate(results []RunResult) []Aggregated {
	var agg aggregator
	for _, r := range results {
		agg.add(r.Spec, r.Summary, r.Err)
	}
	return agg.result()
}

// aggregator is the one summary fold behind Aggregate, reduce mode and
// campaign aggregation: groups keyed by (name, scale) in first-seen
// order, one Welford accumulator per summaryFields entry. Adding runs
// in spec order makes every mean and stddev bit reproducible.
type aggregator struct {
	index  map[groupKey]int
	groups []Aggregated
	accs   [][]stats.Welford
}

type groupKey struct {
	name  string
	scale float64
}

// add folds one run: a failed run (err != nil) counts in its group's
// Errors and contributes no samples.
func (a *aggregator) add(spec Spec, sum Summary, err error) {
	k := groupKey{spec.Name, spec.Scale}
	gi, ok := a.index[k]
	if !ok {
		if a.index == nil {
			a.index = make(map[groupKey]int)
		}
		gi = len(a.groups)
		a.index[k] = gi
		a.groups = append(a.groups, Aggregated{Scenario: k.name, Scale: k.scale})
		a.accs = append(a.accs, make([]stats.Welford, len(summaryFields)))
	}
	if err != nil {
		a.groups[gi].Errors++
		return
	}
	a.groups[gi].Runs++
	for fi, f := range summaryFields {
		a.accs[gi][fi].Add(f.Get(sum))
	}
}

// result returns the groups with their field statistics.
func (a *aggregator) result() []Aggregated {
	out := make([]Aggregated, len(a.groups))
	for gi, g := range a.groups {
		g.Fields = make([]FieldStat, len(summaryFields))
		for fi, f := range summaryFields {
			g.Fields[fi] = FieldStat{Name: f.Name, Mean: a.accs[gi][fi].Mean(), Stddev: a.accs[gi][fi].Stddev()}
		}
		out[gi] = g
	}
	return out
}
