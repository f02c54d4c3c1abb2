// Command wlanalyze runs the paper's congestion analysis over a
// radiotap pcap trace (synthetic from wlansim, or any real monitor-
// mode 802.11b capture) and prints the summary, tables, and figures.
//
// By default inputs are read into memory, merged (timestamp sort plus
// cross-sniffer dedup), and analyzed — the behaviour the batch
// analyzer always had. With -stream, inputs flow straight from disk
// through the metric pipeline in O(seconds) memory; that skips the
// merge pass, so it expects time-ordered captures without duplicates
// (any pcap a single sniffer wrote qualifies).
//
// Usage:
//
//	wlanalyze trace.pcap
//	wlanalyze -figure 6 trace.pcap other.pcap
//	wlanalyze -csv -figure 8 trace.pcap > fig8.csv
//	wlanalyze -stream -metrics util,throughput trace.pcap
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
		stream      = flag.Bool("stream", false, "stream inputs in O(seconds) memory, skipping the merge sort/dedup pass (requires time-ordered captures)")
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
		fmt.Fprintln(os.Stderr, "usage: wlanalyze [-figure N] [-csv] [-metrics a,b] [-stream] trace.pcap...")
		os.Exit(2)
	}
	if *stream && *reliability {
		fmt.Fprintln(os.Stderr, "wlanalyze: -reliability is a batch pass over the merged trace; drop -stream to use it")
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

	var merged []capture.Record
	if *stream {
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wlanalyze:", err)
				os.Exit(1)
			}
			skipped, err := a.Run(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "wlanalyze: %s: %v\n", path, err)
				os.Exit(1)
			}
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, "wlanalyze: %s: skipped %d undecodable records\n", path, skipped)
			}
		}
	} else {
		var traces [][]capture.Record
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wlanalyze:", err)
				os.Exit(1)
			}
			recs, skipped, err := capture.ReadAll(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "wlanalyze: %s: %v\n", path, err)
				os.Exit(1)
			}
			if skipped > 0 {
				fmt.Fprintf(os.Stderr, "wlanalyze: %s: skipped %d undecodable records\n", path, skipped)
			}
			traces = append(traces, recs)
		}
		merged = capture.Merge(traces...)
		a.FeedAll(merged)
	}
	r := a.Result()

	tables := selectTables(r, *figure)
	if *reliability {
		rel := analysis.MeasureBeaconReliability(merged, 10)
		tables = append(tables, report.Reliability(rel))
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
