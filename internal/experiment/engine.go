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

// Engine executes matrix specs on a bounded worker pool, streaming
// each run straight into its own sequential analyzer.
type Engine struct {
	// Workers bounds concurrent runs; <=0 means GOMAXPROCS.
	Workers int
	// Metrics selects analysis stages by name (empty = all).
	Metrics []string

	// peakPending is RunReduceContext's retention high-water mark (see
	// PeakPending).
	peakPending int
}

// RunContext executes every spec and returns results in spec order,
// so downstream aggregation is deterministic regardless of worker
// count or completion order. Per-run failures land in RunResult.Err
// rather than aborting the matrix.
//
// Cancellation is cooperative: once ctx is done, no further specs are
// dispatched; in-flight runs complete (a run is not interruptible
// mid-stream) and every undispatched spec's RunResult carries
// ctx.Err(). The partial results that did complete are returned
// normally, so a CLI can still aggregate and report them after
// SIGINT/SIGTERM.
func (e *Engine) RunContext(ctx context.Context, specs []Spec) []RunResult {
	results := make([]RunResult, len(specs))
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], _ = e.runOne(specs[i], false)
			}
		}()
	}
	for i := range specs {
		// Checked first: select picks among ready cases at random, so
		// a free worker must not win over an already-done context.
		if ctx.Err() == nil {
			select {
			case jobs <- i:
				continue
			case <-ctx.Done():
			}
		}
		for j := i; j < len(specs); j++ {
			results[j] = RunResult{Spec: specs[j], Err: ctx.Err()}
		}
		break
	}
	close(jobs)
	wg.Wait()
	return results
}

// runOne executes one cell: build, stream through the reordering
// bridge into a fresh sequential analyzer, summarize. Runs that
// declare multi-sniffer channels (MultiSnifferRun) stream through the
// Dedup window first, which collapses cross-sniffer duplicates
// exactly as the materialized path's capture.Merge does; everything
// else keeps the direct, per-frame-overhead-free path. The analyzer
// runs unsharded — cross-run parallelism already saturates the pool,
// and the sequential path is the one that never retains frame bytes,
// which is what lets the whole pipeline run without materializing.
//
// With hashed set (campaign cells), a TraceHasher sits between the
// reorder release and the analyzer and the run's trace hash is
// returned alongside the result; collect and reduce runs skip it.
func (e *Engine) runOne(spec Spec, hashed bool) (RunResult, string) {
	run, err := spec.Scenario.Build()
	if err != nil {
		return RunResult{Spec: spec, Err: err}, ""
	}
	a, err := analysis.New(analysis.Options{Metrics: e.Metrics})
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
	sink := ro.Add
	if ms, ok := run.(MultiSnifferRun); ok && ms.MultiSniffer() {
		sink = NewDedup(ro.Add).Add
	}
	if err := run.Stream(sink); err != nil {
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

// RunReduceContext executes every spec like RunContext but reduces as
// it goes: each completed run's full analysis Result is dropped the
// moment its Summary is extracted, and summaries fold into per-group
// Welford accumulators in spec order (buffering at most one small
// Summary per worker to bridge out-of-order completion). Peak
// retention is therefore O(groups + workers) — not O(runs) — which is
// what makes very large matrices (hundreds of cells × many seeds) run
// in flat memory. The aggregates are bit-identical to
// Aggregate(e.RunContext(ctx, specs)); per-spec failures land in the
// returned error slice (nil entries for successes) and count in
// Aggregated.Errors.
//
// Cancellation mirrors RunContext: once ctx is done no further specs
// dispatch, in-flight runs complete and fold normally, and every
// undispatched spec gets ctx.Err() in the error slice (counting in
// Aggregated.Errors). The partial aggregates remain deterministic:
// completed runs fold in spec order exactly as without cancellation.
func (e *Engine) RunReduceContext(ctx context.Context, specs []Spec) ([]Aggregated, []error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	// Group bookkeeping in spec order, mirroring Aggregate.
	type key struct {
		name  string
		scale float64
	}
	groupOf := make([]int, len(specs))
	index := make(map[key]int)
	var order []key
	for i, s := range specs {
		k := key{s.Name, s.Scale}
		gi, ok := index[k]
		if !ok {
			gi = len(order)
			index[k] = gi
			order = append(order, k)
		}
		groupOf[i] = gi
	}
	aggs := make([]Aggregated, len(order))
	accs := make([][]stats.Welford, len(order))
	for gi, k := range order {
		aggs[gi] = Aggregated{Scenario: k.name, Scale: k.scale}
		accs[gi] = make([]stats.Welford, len(summaryFields))
	}

	type done struct {
		i   int
		sum Summary
		err error
	}
	results := make(chan done)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r, _ := e.runOne(specs[i], false)
				r.Result = nil // reduce-as-you-go: only the Summary survives
				results <- done{i: i, sum: r.Summary, err: r.Err}
			}
		}()
	}

	// Fold summaries strictly in spec order so the float accumulation
	// order — and therefore every mean and stddev bit — is independent
	// of worker count and completion order. Dispatch is windowed: spec
	// i is not handed out until spec i-workers has been reduced, which
	// caps the out-of-order buffer at the worker count by construction
	// (a slow head-of-line run may briefly idle the other workers —
	// the price of a retention bound that does not degrade to O(runs)).
	errs := make([]error, len(specs))
	pending := make(map[int]done, workers)
	sent, next, peak := 0, 0, 0
	// total is how many specs will produce worker results; a cancel
	// freezes it at the dispatch point so the loop only waits for
	// in-flight runs.
	total := len(specs)
	apply := func(r done) {
		gi := groupOf[r.i]
		if r.err != nil {
			errs[r.i] = r.err
			aggs[gi].Errors++
			return
		}
		aggs[gi].Runs++
		for fi, f := range summaryFields {
			accs[gi][fi].Add(f.Get(r.sum))
		}
	}
	for completed := 0; completed < total; {
		var r done
		if sent < total && sent < next+workers {
			if ctx.Err() != nil {
				// As in RunContext: a done context wins over a free
				// worker, which select alone would pick at random.
				total = sent
				continue
			}
			select {
			case jobs <- sent:
				sent++
				continue
			case r = <-results:
			case <-ctx.Done():
				total = sent
				continue
			}
		} else {
			r = <-results
		}
		completed++
		pending[r.i] = r
		if len(pending) > peak {
			peak = len(pending)
		}
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			apply(q)
			next++
		}
	}
	close(jobs)
	wg.Wait()
	e.peakPending = peak

	// Undispatched specs were canceled: record the error in spec
	// order so Aggregated.Errors matches the RunContext path.
	if total < len(specs) {
		cerr := ctx.Err()
		for j := total; j < len(specs); j++ {
			errs[j] = cerr
			aggs[groupOf[j]].Errors++
		}
	}

	for gi := range aggs {
		aggs[gi].Fields = make([]FieldStat, len(summaryFields))
		for fi, f := range summaryFields {
			aggs[gi].Fields[fi] = FieldStat{Name: f.Name, Mean: accs[gi][fi].Mean(), Stddev: accs[gi][fi].Stddev()}
		}
	}
	return aggs, errs
}

// PeakPending reports how many completed-but-not-yet-reduced
// summaries the last RunReduceContext held at once (≤ its worker count) —
// the retention the reduce mode's memory claim rests on.
func (e *Engine) PeakPending() int { return e.peakPending }

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
	type key struct {
		name  string
		scale float64
	}
	order := make([]key, 0, 4)
	groups := make(map[key][]RunResult)
	for _, r := range results {
		k := key{r.Spec.Name, r.Spec.Scale}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Aggregated, 0, len(order))
	for _, k := range order {
		g := groups[k]
		agg := Aggregated{Scenario: k.name, Scale: k.scale}
		accs := make([]stats.Welford, len(summaryFields))
		for _, r := range g {
			if r.Err != nil {
				agg.Errors++
				continue
			}
			agg.Runs++
			for i, f := range summaryFields {
				accs[i].Add(f.Get(r.Summary))
			}
		}
		agg.Fields = make([]FieldStat, len(summaryFields))
		for i, f := range summaryFields {
			agg.Fields[i] = FieldStat{Name: f.Name, Mean: accs[i].Mean(), Stddev: accs[i].Stddev()}
		}
		out = append(out, agg)
	}
	return out
}
