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
//	wlansweep -scenarios grid9 -runs 16               # 3×3 grid
//	wlansweep -seeds 62,63,64,65 -scales 0.5 -workers 4
//	wlansweep -runs 8 -json matrix.json               # 8 seeds per cell + JSON report
//	wlansweep -list                                   # registered scenarios
//
// Every run keeps only its summary once analyzed, so memory does not
// grow with the matrix. The -json report lists each run (index, name,
// seed, scale, summary; a failed run's error) and then the
// scenario+scale aggregates. It is the same document whichever way the
// matrix ran: plain, as a campaign, resumed, or distributed.
//
// Crash-resumable campaigns journal every completed run, so a killed
// sweep resumes bit-identically. A campaign's report adds each run's
// trace_hash and is otherwise byte-identical to the plain run's:
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

func main() {
	var (
		scenarios = flag.String("scenarios", "day,plenary", "comma-separated scenario names (see -list)")
		seeds     = flag.String("seeds", "", "comma-separated seeds (default: 1..runs)")
		runs      = flag.Int("runs", 4, "seeds per cell when -seeds is empty (seed 1..N)")
		scales    = flag.String("scales", "0.25", "comma-separated scale factors (1.0 = full size)")
		workers   = flag.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS)")
		metrics   = flag.String("metrics", "", "comma-separated analysis stages (default: all)")
		jsonOut   = flag.String("json", "", "also write the matrix report (every run's summary, then the aggregates) as JSON to this path (- = stdout)")
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
		if *runs < 1 {
			fatal(fmt.Errorf("-runs %d: need at least 1 seed per cell (or -seeds)", *runs))
		}
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
		if *campaign != "" {
			fatal(errors.New("-serve/-worker do not combine with -campaign"))
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

	// A plain run reduces as it goes: only each run's summary is kept,
	// so the matrix size does not bound memory.
	opts := experiment.RunSpecOpts{Matrix: m, Mode: experiment.ModeReduce, Workers: *workers, Metrics: splitList(*metrics)}
	if *campaign != "" || *resume != "" {
		if *campaign != "" && *resume != "" {
			fatal(errors.New("-campaign and -resume are mutually exclusive"))
		}
		opts.Mode = experiment.ModeCampaign
		opts.CampaignDir = *campaign
		if *resume != "" {
			opts.CampaignDir, opts.Resume = *resume, true
		}
	}
	runMatrix(ctx, opts, *jsonOut)
}

// runMatrix runs the matrix, plain or as a campaign, prints its
// aggregate table and writes its report. Exit statuses: 1 when a
// plain run failed, 130 when interrupted (resume a campaign later
// with -resume), 2 on hard errors, including a failed campaign run.
func runMatrix(ctx context.Context, opts experiment.RunSpecOpts, jsonOut string) {
	ex, err := (&experiment.Runner{}).Execute(ctx, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	res := ex.Campaign
	failed, canceled := 0, 0
	for i, err := range ex.Errs { // plain runs only: a campaign returns its failure
		switch {
		case errors.Is(err, context.Canceled):
			canceled++
		case err != nil:
			failed++
			s := res.Specs[i]
			fmt.Fprintf(os.Stderr, "wlansweep: %s seed=%d scale=%g: %v\n", s.Name, s.Seed, s.Scale, err)
		}
	}
	if canceled > 0 {
		interrupted = true
		fmt.Fprintf(os.Stderr, "wlansweep: interrupted: %d of %d runs canceled, reporting the %d completed\n",
			canceled, len(res.Specs), len(res.Specs)-canceled)
	}
	done := 0
	for _, d := range res.Done {
		if d {
			done++
		}
	}

	// With -json - the JSON document owns stdout; the table would
	// corrupt it for any consumer.
	if jsonOut != "-" {
		experiment.AggregateTable(matrixTitle(opts.CampaignDir, res, done, interrupted), res.Aggregates).WriteTo(os.Stdout)
	}
	if jsonOut != "" {
		man := experiment.Manifest{Matrix: opts.Matrix}
		if opts.Mode == experiment.ModeCampaign {
			if man, err = experiment.ReadManifest(opts.CampaignDir); err != nil {
				fatal(err)
			}
		}
		data, err := res.ReportJSON(man)
		if err != nil {
			fatal(err)
		}
		if jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := experiment.AtomicWriteFile(jsonOut, data); err != nil {
			// temp-file+rename: an interrupt mid-write can never leave a
			// torn report where a previous good one stood.
			fatal(err)
		}
	}
	if failed > 0 {
		profStop()
		os.Exit(1)
	}
	if interrupted {
		profStop()
		os.Exit(130) // conventional interrupted-by-signal status
	}
}

// matrixTitle is the aggregate table's title: a plain matrix or the
// campaign in dir, noting an interruption.
func matrixTitle(dir string, res *experiment.CampaignResult, done int, interrupted bool) string {
	n := len(res.Specs)
	switch {
	case dir == "" && interrupted:
		return fmt.Sprintf("Experiment matrix (%d of %d runs; interrupted)", done, n)
	case dir == "":
		return fmt.Sprintf("Experiment matrix (%d runs)", n)
	case interrupted:
		return fmt.Sprintf("Campaign %s (interrupted: %d of %d runs done; -resume %s to continue)", dir, done, n, dir)
	case res.FromJournal > 0:
		return fmt.Sprintf("Campaign %s (%d runs, %d from journal)", dir, n, res.FromJournal)
	}
	return fmt.Sprintf("Campaign %s (%d runs)", dir, n)
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
