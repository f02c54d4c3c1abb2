// Command ietfrepro regenerates every table and figure of "Understanding
// Congestion in IEEE 802.11b Wireless Networks" (Jardosh et al., IMC
// 2005) from synthetic IETF62-style traces.
//
// Tables 1–2 and Figures 4–5 come from the day and plenary session
// scenarios; the scatter Figures 6–15 come from the utilization sweep
// ladder, mirroring how the paper pools both sessions' per-second data.
// All three scenarios execute on the experiment engine's worker pool,
// each streaming straight into its own analysis pipeline — no
// materialized traces, so a full-scale run needs only per-second
// memory.
//
// Usage:
//
//	ietfrepro                 # everything, default scale
//	ietfrepro -scale 0.5      # faster, smaller runs
//	ietfrepro -only 8         # just Figure 8
//	ietfrepro -json runs.json # also the runs' summaries, in wlansweep's
//	                          # -json report shape
//
// For a seeds × scales robustness matrix of the headline numbers, run
// the same scenarios through wlansweep:
//
//	wlansweep -scenarios day,plenary,ladder -runs 4 -scales 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"wlan80211/internal/experiment"
	"wlan80211/internal/prof"
	"wlan80211/internal/report"
	"wlan80211/internal/workload"
)

// profStop flushes any active profiles; main replaces it once
// profiling starts. Idempotent, safe before every exit path.
var profStop = func() {}

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "scenario scale factor, a finite number above 0 (1.0 = full size)")
		only    = flag.Int("only", 0, "print only this figure number (0 = everything)")
		workers = flag.Int("workers", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
		jsonOut = flag.String("json", "", "also write the matrix report of the runs (as wlansweep -json) to this path, atomically")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write an allocs/heap profile to this file at exit")
	)
	flag.Parse()
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		os.Exit(2)
	}
	// Explicit os.Exit paths flush through profStop (defers don't run
	// across os.Exit); stop is idempotent, so double flushes are safe.
	profStop = stop
	defer stop()

	if err := workload.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		profStop()
		os.Exit(2)
	}
	if *only != 0 && (*only < report.FirstFigure || *only > report.LastFigure) {
		fmt.Fprintf(os.Stderr, "ietfrepro: no figure %d (have %d-%d)\n", *only, report.FirstFigure, report.LastFigure)
		profStop()
		os.Exit(2)
	}

	day := workload.DaySession().Scale(*scale)
	plenary := workload.PlenarySession().Scale(*scale)

	// Table 1: the session plan itself.
	t1 := report.NewTable("Table 1: data sets", "set", "channels", "duration_s", "peak_users")
	t1.AddRow(day.Name, "1, 6, 11", day.DurationSec, day.PeakUsers)
	t1.AddRow(plenary.Name, "1, 6, 11", plenary.DurationSec, plenary.PeakUsers)

	if *only == 0 {
		t1.WriteTo(os.Stdout)
		fmt.Println()
		report.Table2().WriteTo(os.Stdout)
		fmt.Println()
	}

	// Only the scenarios whose figures will print run — concurrently
	// on the engine, streaming. Registry seed 0 keeps each scenario's
	// default seed: exactly the sessions of Table 1 and the default
	// ladder at this scale.
	needSessions := *only == 0 || *only == 4 || *only == 5
	needLadder := *only != 4 && *only != 5
	m := experiment.Matrix{Scales: []float64{*scale}}
	if needSessions {
		m.Scenarios = append(m.Scenarios, "day", "plenary")
	}
	if needLadder {
		m.Scenarios = append(m.Scenarios, "ladder")
	}
	ex, err := (&experiment.Runner{}).Execute(context.Background(), experiment.RunSpecOpts{Matrix: m, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		profStop()
		os.Exit(1)
	}
	results := ex.Results
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "ietfrepro: %s: %v\n", res.Spec.Name, res.Err)
			profStop()
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		data, err := ex.Campaign.ReportJSON(experiment.Manifest{Matrix: m})
		if err == nil {
			err = experiment.AtomicWriteFile(*jsonOut, data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ietfrepro:", err)
			profStop()
			os.Exit(1)
		}
	}

	// Session figures (4–5).
	if needSessions {
		for _, res := range results[:2] {
			r := res.Result
			fmt.Printf("=== %s session (%d frames captured) ===\n\n", res.Spec.Name, r.TotalFrames)
			for _, n := range []int{4, 5} {
				if *only == 0 || *only == n {
					printTables(report.Figure(r, n)...)
				}
			}
		}
	}

	if *only == 4 || *only == 5 {
		return
	}

	// Sweep ladder for Figures 6–15 (always the last spec when run).
	r := results[len(results)-1].Result
	fmt.Printf("=== utilization sweep (%d frames captured) ===\n\n", r.TotalFrames)
	if *only != 0 {
		// *only is validated up front and 4/5 returned above: a
		// scatter figure, one table.
		report.Figure(r, *only)[0].WriteTo(os.Stdout)
		return
	}
	printTables(report.Summary(r))
	for n := 6; n <= report.LastFigure; n++ {
		printTables(report.Figure(r, n)...)
	}
}

// printTables writes each table to standard output, followed by a
// blank line.
func printTables(tables ...*report.Table) {
	for _, t := range tables {
		t.WriteTo(os.Stdout)
		fmt.Println()
	}
}
