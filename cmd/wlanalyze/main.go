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
	if *figure != 0 && (*figure < report.FirstFigure || *figure > report.LastFigure) {
		fmt.Fprintf(os.Stderr, "wlanalyze: no figure %d\n", *figure)
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

	var tables []*report.Table
	if *figure == 0 {
		tables = report.AllFigures(r)
	} else {
		tables = report.Figure(r, *figure)
	}
	if *reliability {
		tables = append(tables, report.Reliability(beacons.Result()))
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
