// Command wlansim simulates an IEEE 802.11b network scenario and
// writes the vicinity-sniffer trace as a radiotap pcap file, the same
// wire format the paper's tethereal-based framework produced.
//
// Any scenario of the experiment registry can be written (wlansweep
// -list names them); several sniffers' captures of one transmission
// are written once. The run streams through the reorder window into
// the file, so memory does not grow with the trace.
//
// Usage:
//
//	wlansim -scenario day -scale 0.5 -o day.pcap
//	wlansim -scenario plenary -o plenary.pcap
//	wlansim -scenario ladder -o ladder.pcap
//	wlansim -scenario grid9 -o grid9.pcap
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
)

func main() {
	var (
		scenario = flag.String("scenario", "day", "scenario: "+strings.Join(experiment.Names(), ", "))
		scale    = flag.Float64("scale", 1.0, "scenario scale factor, a finite number above 0 (1.0 = full size)")
		seed     = flag.Int64("seed", 0, "override the scenario seed (0 keeps default)")
		out      = flag.String("o", "trace.pcap", "output pcap path")
		snap     = flag.Int("snaplen", 250, "snap length applied to MAC frames")
	)
	flag.Parse()

	// An unknown scenario or an invalid scale is a usage error (exit
	// 2), as in wlansweep and ietfrepro; a failed run or write exits 1.
	scn, err := experiment.New(*scenario, *seed, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlansim:", err)
		os.Exit(2)
	}
	n, err := write(scn, *out, *snap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlansim:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d frames to %s\n", n, *out)
}

// write runs scn and streams its trace, in start-time order with
// same-air duplicates dropped, into a pcap at path. It returns the
// number of frames written.
func write(scn experiment.Scenario, path string, snap int) (int, error) {
	run, err := scn.Build()
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w, err := capture.NewWriter(f, snap)
	if err != nil {
		return 0, err
	}
	// A simulation cannot stop mid-run: after a write error the rest
	// of the stream is discarded.
	n := 0
	var werr error
	ro := experiment.NewReorder(func(rec capture.Record) {
		if werr == nil {
			if werr = w.Write(rec); werr == nil {
				n++
			}
		}
	})
	run.RunStream(ro.Add)
	ro.Flush()
	if werr != nil {
		return n, werr
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
