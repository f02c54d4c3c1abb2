// Command wlansweep runs a seeds × scales × scenarios experiment
// matrix on a worker pool, streaming every run straight into the
// analysis pipeline (no materialized traces), and reports per-group
// mean±stddev summary rows — the multi-run aggregate view the paper's
// own results are: averages over many sniffer-hours at different
// congestion levels.
//
// Usage:
//
//	wlansweep                                         # day+plenary, 4 seeds, scale 0.25
//	wlansweep -scenarios sweep,ladder -scales 0.2,0.4
//	wlansweep -scenarios grid -runs 4 -scales 1.0     # 2×2 multi-cell grid: co-channel
//	                                                  # interference, roaming mobiles,
//	                                                  # mixed b/g, 2 sniffers/channel
//	wlansweep -scenarios grid9 -reduce -runs 16       # 3×3 grid, reduce-as-you-go:
//	                                                  # only aggregate rows retained
//	wlansweep -seeds 62,63,64,65 -scales 0.5 -workers 4
//	wlansweep -runs 8 -json matrix.json               # 8 seeds per cell + JSON archive
//	wlansweep -list                                   # registered scenarios
//
// Crash-resumable campaigns journal every completed run, so a killed
// sweep resumes bit-identically:
//
//	wlansweep -campaign DIR                           # journal each completed run
//	wlansweep -resume DIR                             # skip journaled runs, rerun the
//	                                                  # interrupted ones from t=0
//
// Distributed sweeps shard one campaign across worker processes: a
// coordinator leases spec ranges over HTTP (/api/v1) and folds the
// uploaded journals into a report byte-identical to a single-process
// run. Workers are crash-safe the same way campaigns are:
//
//	wlansweep -serve :8410 -dispatch DIR -scenarios grid -runs 8   # coordinator
//	wlansweep -worker http://HOST:8410 -workdir W1                 # as many as you like
//	wlansweep -serve :8410 -resume DIR                             # resume a coordinator
//	wlansweep -resume DIR                                          # or finish its campaign
//	                                                               # in one process
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wlan80211/internal/dispatch"
	"wlan80211/internal/experiment"
	"wlan80211/internal/prof"
)

// jsonReport is the -json document: the expanded matrix, one row per
// run, and the scenario+scale aggregates.
type jsonReport struct {
	Scenarios  []string                `json:"scenarios"`
	Seeds      []int64                 `json:"seeds"`
	Scales     []float64               `json:"scales"`
	Workers    int                     `json:"workers"`
	Runs       []jsonRun               `json:"runs"`
	Aggregates []experiment.Aggregated `json:"aggregates"`
}

// jsonRun is one matrix cell's outcome.
type jsonRun struct {
	Scenario string             `json:"scenario"`
	Seed     int64              `json:"seed"`
	Scale    float64            `json:"scale"`
	Params   []experiment.Param `json:"params,omitempty"`
	Summary  experiment.Summary `json:"summary"`
	Error    string             `json:"error,omitempty"`
}

func main() {
	var (
		scenarios = flag.String("scenarios", "day,plenary", "comma-separated scenario names (see -list)")
		seeds     = flag.String("seeds", "", "comma-separated seeds (default: 1..runs)")
		runs      = flag.Int("runs", 4, "seeds per cell when -seeds is empty (seed 1..N)")
		scales    = flag.String("scales", "0.25", "comma-separated scale factors (1.0 = full size)")
		workers   = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		metrics   = flag.String("metrics", "", "comma-separated analysis stages (default: all)")
		jsonOut   = flag.String("json", "", "also write the full report as JSON to this path (- = stdout)")
		reduce    = flag.Bool("reduce", false, "reduce as you go: retain only aggregate rows, not per-run results (for very large matrices; -json omits runs)")
		campaign  = flag.String("campaign", "", "run as a crash-resumable campaign in this directory (journal of completed runs)")
		resume    = flag.String("resume", "", "resume the campaign in this directory (matrix flags ignored; campaign.json is authoritative)")
		serve     = flag.String("serve", "", "run as a distributed-sweep coordinator listening on this address (host:port)")
		dispatchD = flag.String("dispatch", "", "with -serve: coordinator state directory")
		shardSize = flag.Int("shard-size", 1, "with -serve: specs per worker lease")
		leaseTTL  = flag.Float64("lease-ttl", 15, "with -serve: seconds a lease survives without a heartbeat before its shard is reassigned")
		workerURL = flag.String("worker", "", "run as a distributed-sweep worker against this coordinator URL")
		workdir   = flag.String("workdir", "wlansweep-worker", "with -worker: worker state directory (shard campaigns live here)")
		list      = flag.Bool("list", false, "list registered scenarios and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the matrix run to this file")
		memProf   = flag.String("memprofile", "", "write an allocs/heap profile to this file at exit")
	)
	flag.Parse()
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlansweep:", err)
		os.Exit(2)
	}
	// fatal and every explicit os.Exit flush through profStop (defers
	// don't run across os.Exit); stop is idempotent, so the normal-exit
	// defer and an early-exit flush cannot double-write.
	profStop = stop
	defer stop()
	if *list {
		for _, n := range experiment.Names() {
			fmt.Println(n)
		}
		return
	}

	m := experiment.Matrix{Scenarios: splitList(*scenarios)}
	if m.Scales, err = parseFloats(*scales); err != nil {
		fatal(err)
	}
	if *seeds != "" {
		if m.Seeds, err = parseInts(*seeds); err != nil {
			fatal(err)
		}
	} else {
		for s := int64(1); s <= int64(*runs); s++ {
			m.Seeds = append(m.Seeds, s)
		}
	}

	// SIGINT/SIGTERM stops dispatching new runs; in-flight runs
	// complete and the partial matrix is still reported, so a long
	// sweep cut short keeps what it already paid for.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *serve != "" || *workerURL != "" {
		if *serve != "" && *workerURL != "" {
			fatal(errors.New("-serve and -worker are mutually exclusive"))
		}
		if *campaign != "" || *reduce {
			fatal(errors.New("-serve/-worker do not combine with -campaign or -reduce"))
		}
		if *workerURL != "" {
			if *resume != "" {
				fatal(errors.New("-worker does not take -resume (workers resume their own shard journals automatically)"))
			}
			runWorkerMode(ctx, *workerURL, *workdir, *workers)
			return
		}
		cfg := dispatch.Config{
			Metrics:   splitList(*metrics),
			ShardSize: *shardSize,
			LeaseTTL:  time.Duration(*leaseTTL * float64(time.Second)),
			Logf:      logStderr,
		}
		switch {
		case *resume != "":
			cfg.Dir = *resume // manifest is authoritative; matrix flags ignored
		case *dispatchD != "":
			cfg.Dir = *dispatchD
			cfg.Matrix = m
		default:
			fatal(errors.New("-serve requires -dispatch DIR (or -resume DIR)"))
		}
		runServeMode(ctx, *serve, cfg, *jsonOut)
		return
	}

	opts := experiment.RunSpecOpts{Matrix: m, Workers: *workers, Metrics: splitList(*metrics)}
	if *campaign != "" || *resume != "" {
		if *campaign != "" && *resume != "" {
			fatal(errors.New("-campaign and -resume are mutually exclusive"))
		}
		if *reduce {
			fatal(errors.New("-reduce does not apply to campaigns (the journal already bounds memory)"))
		}
		opts.Mode = experiment.ModeCampaign
		opts.CampaignDir = *campaign
		if *resume != "" {
			opts.CampaignDir, opts.Resume = *resume, true
		}
		runCampaignMode(ctx, opts, *jsonOut)
		return
	}

	if *reduce {
		// Reduce-as-you-go: per-run Results are dropped the moment
		// their summary folds into the aggregates, so the matrix size
		// no longer bounds memory.
		opts.Mode = experiment.ModeReduce
	}
	ex, err := (&experiment.Runner{}).Execute(ctx, opts)
	if err != nil {
		fatal(err)
	}
	specs, results, aggs := ex.Specs, ex.Results, ex.Aggregates
	failed, canceled := 0, 0
	for i, err := range ex.Errs {
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
		case err != nil:
			failed++
			s := specs[i]
			fmt.Fprintf(os.Stderr, "wlansweep: %s seed=%d scale=%g: %v\n", s.Name, s.Seed, s.Scale, err)
		}
	}
	if canceled > 0 {
		fmt.Fprintf(os.Stderr, "wlansweep: interrupted: %d of %d runs canceled, reporting the %d completed\n",
			canceled, len(specs), len(specs)-canceled)
	}

	// With -json - the JSON document owns stdout; the table would
	// corrupt it for any consumer.
	if *jsonOut != "-" {
		title := fmt.Sprintf("Experiment matrix (%d runs)", len(specs))
		if canceled > 0 {
			title = fmt.Sprintf("Experiment matrix (%d of %d runs; interrupted)", len(specs)-canceled, len(specs))
		}
		experiment.AggregateTable(title, aggs).WriteTo(os.Stdout)
	}

	if *jsonOut != "" {
		doc := jsonReport{
			Scenarios:  m.Scenarios,
			Seeds:      m.Seeds,
			Scales:     m.Scales,
			Workers:    *workers,
			Aggregates: aggs,
		}
		for _, r := range results {
			jr := jsonRun{
				Scenario: r.Spec.Name,
				Seed:     r.Spec.Seed,
				Scale:    r.Spec.Scale,
				Summary:  r.Summary,
			}
			if r.Spec.Scenario != nil {
				jr.Params = r.Spec.Scenario.Params()
			}
			if r.Err != nil {
				jr.Error = r.Err.Error()
			}
			doc.Runs = append(doc.Runs, jr)
		}
		if *jsonOut == "-" {
			enc, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(append(enc, '\n'))
		} else if err := experiment.WriteJSONAtomic(*jsonOut, doc); err != nil {
			// temp-file+rename: an interrupt mid-write can never leave a
			// torn report where a previous good one stood.
			fatal(err)
		}
	}
	if failed > 0 {
		profStop()
		os.Exit(1)
	}
	if canceled > 0 {
		profStop()
		os.Exit(130) // conventional interrupted-by-signal status
	}
}

// runCampaignMode runs or resumes a crash-resumable campaign and
// reports it. Exit statuses match the plain path: 130 when
// interrupted (resume later with -resume), 2 on hard errors.
func runCampaignMode(ctx context.Context, opts experiment.RunSpecOpts, jsonOut string) {
	dir := opts.CampaignDir
	ex, err := (&experiment.Runner{}).Execute(ctx, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	res := ex.Campaign

	done := 0
	for _, d := range res.Done {
		if d {
			done++
		}
	}
	title := fmt.Sprintf("Campaign %s (%d runs", dir, len(res.Specs))
	if res.FromJournal > 0 {
		title += fmt.Sprintf(", %d from journal", res.FromJournal)
	}
	title += ")"
	if interrupted {
		title = fmt.Sprintf("Campaign %s (interrupted: %d of %d runs done; -resume %s to continue)", dir, done, len(res.Specs), dir)
	}
	if jsonOut != "-" {
		experiment.AggregateTable(title, res.Aggregates).WriteTo(os.Stdout)
	}

	if jsonOut != "" {
		man, merr := experiment.ReadManifest(dir)
		if merr != nil {
			fatal(merr)
		}
		data, jerr := res.ReportJSON(man)
		if jerr != nil {
			fatal(jerr)
		}
		if jsonOut == "-" {
			os.Stdout.Write(data)
		} else if werr := experiment.AtomicWriteFile(jsonOut, data); werr != nil {
			fatal(werr)
		}
	}
	if interrupted {
		profStop()
		os.Exit(130)
	}
}

// runServeMode runs the distributed-sweep coordinator: serve the
// /api/v1 lease protocol until every shard folds, then emit the
// report — a byte-copy of the coordinator's folded bytes, so it diffs
// clean against a single-process `-campaign -json` run. Exit statuses
// match the campaign path: 130 when interrupted (resume with -serve
// -resume DIR), 2 on hard errors.
func runServeMode(ctx context.Context, addr string, cfg dispatch.Config, jsonOut string) {
	co, err := dispatch.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer co.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: dispatch.NewServer(co), ReadHeaderTimeout: 10 * time.Second}
	logStderr("coordinator %s listening on http://%s", cfg.Dir, ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "wlansweep:", err)
		}
	}()
	interrupted := false
	select {
	case <-co.Done():
	case <-ctx.Done():
		interrupted = true
	}
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	if interrupted {
		logStderr("coordinator interrupted; continue with -serve %s -resume %s", addr, cfg.Dir)
		profStop()
		os.Exit(130)
	}
	data, _ := co.Report()
	switch jsonOut {
	case "":
	case "-":
		os.Stdout.Write(data)
	default:
		if err := experiment.AtomicWriteFile(jsonOut, data); err != nil {
			fatal(err)
		}
	}
}

// runWorkerMode joins a distributed sweep until the coordinator says
// the campaign is done. Shard campaigns live under dir, so a worker
// killed and restarted with the same -workdir resumes its own
// journals.
func runWorkerMode(ctx context.Context, url, dir string, workers int) {
	host, _ := os.Hostname()
	w := &dispatch.Worker{
		Coordinator: strings.TrimRight(url, "/"),
		Dir:         dir,
		Name:        fmt.Sprintf("%s-%d", host, os.Getpid()),
		Workers:     workers,
		Logf:        logStderr,
	}
	err := w.Run(ctx)
	switch {
	case errors.Is(err, context.Canceled):
		profStop()
		os.Exit(130)
	case err != nil:
		fatal(err)
	}
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wlansweep: "+format+"\n", args...)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitList(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// profStop flushes any active profiles; main replaces it once
// profiling starts. Idempotent, safe before every exit path.
var profStop = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wlansweep:", err)
	profStop()
	os.Exit(2)
}
