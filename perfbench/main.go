// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the entry points users hit — the
// experiment runner (wlansweep's path), the wland HTTP API and the
// wlanalyze pcap path — checks every output, and prints the metrics
// BENCHMARK.json names as one JSON object on the last line of
// standard output.
//
//	perfbench --workload day|grid256|ingest|analyze --seed N --seconds S --trace 0|1
//
// The seed generates the workload's inputs; the same seed gives the
// same inputs. With --trace 0 every timed run is untraced and the
// end-to-end metrics are reported. With --trace 1 untraced and traced
// runs alternate: the traced runs time and count the calls into each
// layer from outside and report the per-layer metrics, and the
// untraced runs give the tracing overhead. DESIGN.md lists the
// workloads and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists
// mirror BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"work_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"workload.build_s", "s"},
	{"sim.self_s", "s"},
	{"sim.tx", "count"},
	{"sim.ns_per_tx", "ns"},
	{"sim.ns_per_event", "ns"},
	{"sim.data_acked_ratio", "ratio"},
	{"sim.collisions_per_tx", "ratio"},
	{"sim.queue_drops", "count"},
	{"sim.links_per_row", "count"},
	{"eventq.events", "count"},
	{"eventq.heap_ops", "count"},
	{"eventq.deferrals", "count"},
	{"eventq.events_per_tx", "ratio"},
	{"eventq.heap_ops_per_tx", "ratio"},
	{"sniffer.records", "count"},
	{"sniffer.records_per_tx", "ratio"},
	{"dedup.self_s", "s"},
	{"dedup.ns_per_rec", "ns"},
	{"dedup.dropped", "count"},
	{"dedup.max_pending", "count"},
	{"reorder.self_s", "s"},
	{"reorder.ns_per_rec", "ns"},
	{"reorder.max_pending", "count"},
	{"tracehash.self_s", "s"},
	{"analysis.self_s", "s"},
	{"analysis.ns_per_frame", "ns"},
	{"analysis.result_s", "s"},
	{"analysis.frames", "count"},
	{"analysis.parse_errors", "count"},
	{"capture.read_s", "s"},
	{"capture.ns_per_rec", "ns"},
	{"capture.merge_s", "s"},
	{"capture.records", "count"},
	{"capture.skipped", "count"},
	{"report.render_s", "s"},
	{"monitor.handler_s", "s"},
	{"monitor.handler_us_per_rec", "us"},
	{"monitor.requests", "count"},
	{"monitor.accepted", "count"},
	{"monitor.dropped", "count"},
	{"monitor.rejected", "count"},
	{"monitor.frames", "count"},
	{"monitor.drain_s", "s"},
	{"monitor.generator_late_ms", "ms"},
	{"monitor.push_p50_ms", "ms"},
	{"monitor.push_p99_ms", "ms"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unaccounted_pct", "%"},
	{"trace.runs", "count"},
	{"bench.gen_s", "s"},
}

// benchWorkload is one named set of inputs the benchmark runs.
type benchWorkload interface {
	// generate makes the seeded inputs in dir. It is timed apart from
	// set-up and reported as bench.gen_s.
	generate(seed int64, dir string) error
	// warmup runs the workload once, untimed, so process-global tables
	// fill and connections open before anything is measured.
	warmup() error
	// setup performs the workload's set-up once and returns its time.
	setup() (time.Duration, error)
	// run performs one timed run. A non-nil tracer makes it a traced
	// run that also fills outcome.layers.
	run(tr *tracer) (outcome, error)
	close()
}

// outcome is what one timed run measured and checked.
type outcome struct {
	sample sample
	// work is the run's units of work: simulated transmissions,
	// pushed records or analyzed frames.
	work float64
	// attempted and failed count checked operations; failed ones are
	// output mismatches, errors, drops and rejections.
	attempted, failed int64
	// latencies are per-request latencies (ingest only).
	latencies []time.Duration
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "day":
		return &simWorkload{name: "day", sessions: 3}, nil
	case "grid256":
		return &simWorkload{name: "grid256", campaign: true, sessions: 1}, nil
	case "ingest":
		return &ingestWorkload{}, nil
	case "analyze":
		return &analyzeWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have day, grid256, ingest, analyze)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: day, grid256, ingest or analyze")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the timed runs take, in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced runs; 0 end-to-end metrics from untraced runs")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, info, err := bench(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"info": info}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outDir holds the scratch inputs, removed on exit, and the span file
// of a traced run. It is relative to the checkout root, where run.sh
// starts the benchmark.
const outDir = ".bench_build"

// Set-up is repeated between minSetupReps and maxSetupReps times, or
// until setupBudget is spent, and reported as the median.
const (
	minSetupReps = 5
	maxSetupReps = 500
	setupBudget  = time.Second
)

// bench runs one workload end to end and returns the result line and
// an info record of the environment and run counts.
func bench(name string, seed int64, seconds float64, traced bool) (*result, map[string]any, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	defer w.close()

	genStart := time.Now()
	if err := w.generate(seed, dir); err != nil {
		return nil, nil, fmt.Errorf("generating %s inputs: %w", name, err)
	}
	gen := time.Since(genStart)
	if err := w.warmup(); err != nil {
		return nil, nil, fmt.Errorf("%s warm-up: %w", name, err)
	}

	var setups []float64
	for setupStart := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(setupStart) < setupBudget); {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, d.Seconds())
	}

	// Timed runs: at least minRuns of each kind, and more while the
	// next run, judged by the last one, would end within the budget or
	// less than half a run past it. Traced mode alternates untraced and
	// traced runs so both see the same machine state.
	minRuns := 3
	if traced {
		minRuns = 2
	}
	log := &spanLog{epoch: time.Now()}
	var plain, withTrace []outcome
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; time.Since(start)+last/2 < budget || len(plain) < minRuns || (traced && len(withTrace) < minRuns); i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = log.newRun()
		}
		runStart := time.Now()
		o, err := w.run(tr)
		last = time.Since(runStart)
		if err != nil {
			return nil, nil, fmt.Errorf("%s run %d: %w", name, i, err)
		}
		kind := "untraced"
		if tr != nil {
			kind = "traced"
			withTrace = append(withTrace, o)
		} else {
			plain = append(plain, o)
		}
		fmt.Fprintf(os.Stderr, "%s %s run %d: wall %.4fs cpu %.4fs alloc %.1fMB failed %d/%d\n",
			name, kind, i, o.sample.wall.Seconds(), o.sample.cpu.Seconds(), float64(o.sample.alloc)/1e6, o.failed, o.attempted)
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, runs := range [][]outcome{plain, withTrace} {
		for _, o := range runs {
			res.Attempted += o.attempted
			res.Failed += o.failed
		}
	}
	res.Correct = res.Failed == 0

	info := map[string]any{
		"workload":       name,
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"gen_s":          gen.Seconds(),
		"setup_reps":     len(setups),
		"untraced_runs":  len(plain),
		"traced_runs":    len(withTrace),
		"fail_ratio":     float64(res.Failed) / float64(max(res.Attempted, 1)),
		"seconds_budget": seconds,
	}
	if lat := pooledLatencies(plain); len(lat) > 0 {
		info["push_p50_ms"] = quantile(lat, 0.50)
		info["push_p99_ms"] = quantile(lat, 0.99)
		info["push_samples"] = len(lat)
	}

	if !traced {
		set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
		set("wall_s", medianOf(plain, func(o outcome) float64 { return o.sample.wall.Seconds() }))
		set("cpu_s", medianOf(plain, func(o outcome) float64 { return o.sample.cpu.Seconds() }))
		set("setup_s", median(setups))
		set("alloc_mb", medianOf(plain, func(o outcome) float64 { return float64(o.sample.alloc) / 1e6 }))
		set("work_per_s", medianOf(plain, func(o outcome) float64 { return o.work / o.sample.wall.Seconds() }))
		return res, info, nil
	}

	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.name] = 0 // a layer the workload never calls reads 0
		if vals := layerValues(withTrace, m.name); len(vals) > 0 {
			layers[m.name] = median(vals)
		}
	}
	if lat := pooledLatencies(withTrace); len(lat) > 0 {
		layers["monitor.push_p50_ms"] = quantile(lat, 0.50)
		layers["monitor.push_p99_ms"] = quantile(lat, 0.99)
	}
	layers["runtime.mallocs"] = medianOf(withTrace, func(o outcome) float64 { return float64(o.sample.mallocs) })
	layers["runtime.gc_cycles"] = medianOf(withTrace, func(o outcome) float64 { return float64(o.sample.gcs) })
	layers["runtime.gc_pause_ms"] = medianOf(withTrace, func(o outcome) float64 { return o.sample.pause.Seconds() * 1e3 })
	tracedWall := medianOf(withTrace, func(o outcome) float64 { return o.sample.wall.Seconds() })
	plainWall := medianOf(plain, func(o outcome) float64 { return o.sample.wall.Seconds() })
	layers["trace.overhead_pct"] = (tracedWall/plainWall - 1) * 100
	layers["trace.runs"] = float64(len(withTrace))
	layers["bench.gen_s"] = gen.Seconds()
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}

	spans := filepath.Join(outDir, "spans-"+name+".jsonl")
	if err := log.write(spans); err != nil {
		return nil, nil, err
	}
	info["spans_file"] = spans
	return res, info, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func layerValues(runs []outcome, name string) []float64 {
	var vals []float64
	for _, o := range runs {
		if v, ok := o.layers[name]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// pooledLatencies returns every run's request latencies in
// milliseconds, pooled so percentiles rest on all samples.
func pooledLatencies(runs []outcome) []float64 {
	var ms []float64
	for _, o := range runs {
		for _, l := range o.latencies {
			ms = append(ms, float64(l)/float64(time.Millisecond))
		}
	}
	return ms
}

func medianOf(runs []outcome, f func(outcome) float64) float64 {
	vals := make([]float64, len(runs))
	for i, o := range runs {
		vals[i] = f(o)
	}
	return median(vals)
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile interpolates linearly between the closest ranks of the
// sorted values; q is in [0, 1].
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
