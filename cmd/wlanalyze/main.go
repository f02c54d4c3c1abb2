// Command wlanalyze runs the paper's congestion analysis over radiotap
// pcap traces (synthetic from wlansim, or any real monitor-mode
// 802.11b capture) and prints the summary, tables, and figures.
//
// Several inputs are one capture, as the paper merged its sniffers'
// traces. wlanalyze streams them all at once, in memory independent of
// trace length, and analyzes the records in start-time order (ties in
// input order) with duplicate captures of one transmission dropped:
// what merging the whole files gives. It orders the records through a
// window of experiment.ReorderHorizon() (~33 ms), so no record's
// airtime may exceed the horizon, and a record may start at most the
// horizon before the newest end (start + airtime) already read from
// its file; time-sorted files and files a sniffer wrote in capture
// order qualify. An input that breaks the rule is an error naming the
// file and the record (counting from 1), and wlanalyze exits 1
// without printing an analysis.
//
// Usage:
//
//	wlanalyze trace.pcap
//	wlanalyze -figure 6 trace.pcap other.pcap
//	wlanalyze -csv -figure 8 trace.pcap > fig8.csv
//	wlanalyze -metrics util,throughput trace.pcap
//	wlanalyze -list-metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/report"
)

func main() {
	var (
		figure      = flag.Int("figure", 0, "print only this figure (4–15; 0 = everything)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		reliability = flag.Bool("reliability", false, "also print the beacon-reliability metric")
		metrics     = flag.String("metrics", "", "comma-separated metric stages to run (default: all; see -list-metrics)")
		listMetrics = flag.Bool("list-metrics", false, "list the registered metric stages and exit")
	)
	flag.Parse()
	if *listMetrics {
		for _, n := range analysis.Names() {
			fmt.Printf("%-12s %s\n", n, analysis.Describe(n))
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: wlanalyze [-figure N] [-csv] [-metrics a,b] [-reliability] trace.pcap...")
		os.Exit(2)
	}

	var opts analysis.Options
	if *metrics != "" {
		for _, n := range strings.Split(*metrics, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opts.Metrics = append(opts.Metrics, n)
			}
		}
	}
	a, err := analysis.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlanalyze:", err)
		os.Exit(2)
	}
	sink := a.Feed
	var beacons *analysis.BeaconCounter
	if *reliability {
		beacons = analysis.NewBeaconCounter(10)
		sink = func(rec capture.Record) {
			a.Feed(rec)
			beacons.Add(&rec)
		}
	}
	if err := analyze(flag.Args(), sink); err != nil {
		fmt.Fprintln(os.Stderr, "wlanalyze:", err)
		os.Exit(1)
	}
	r := a.Result()

	tables := selectTables(r, *figure)
	if *reliability {
		tables = append(tables, report.Reliability(beacons.Result()))
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "wlanalyze: no figure %d\n", *figure)
		os.Exit(2)
	}
	for i, t := range tables {
		if *csv {
			if err := t.CSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "wlanalyze:", err)
				os.Exit(1)
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		t.WriteTo(os.Stdout)
	}
}

func selectTables(r *analysis.Result, figure int) []*report.Table {
	switch figure {
	case 0:
		return report.AllFigures(r)
	case 4:
		return []*report.Table{report.Figure4a(r, 15), report.Figure4b(r), report.Figure4c(r, 15)}
	case 5:
		return []*report.Table{report.Figure5(r), report.Figure5c(r)}
	case 6:
		return []*report.Table{report.Figure6(r)}
	case 7:
		return []*report.Table{report.Figure7(r)}
	case 8:
		return []*report.Table{report.Figure8(r)}
	case 9:
		return []*report.Table{report.Figure9(r)}
	case 10:
		return []*report.Table{report.Figure10(r)}
	case 11:
		return []*report.Table{report.Figure11(r)}
	case 12:
		return []*report.Table{report.Figure12(r)}
	case 13:
		return []*report.Table{report.Figure13(r)}
	case 14:
		return []*report.Table{report.Figure14(r)}
	case 15:
		return []*report.Table{report.Figure15(r)}
	default:
		return nil
	}
}
