package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/phy"
	"wlan80211/internal/workload"
)

// TestMain runs wlanalyze itself instead of the tests when
// WLANALYZE_ARGS is set (its arguments, one per line), so a test can
// check the real command's output and exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("WLANALYZE_ARGS"); ok {
		os.Args = append([]string{"wlanalyze"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWlanalyze runs wlanalyze with args and returns its standard
// output, standard error and exit status.
func runWlanalyze(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WLANALYZE_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// writePcap writes recs as a radiotap pcap at path.
func writePcap(t *testing.T, path string, recs []capture.Record, snapLen int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w, err := capture.NewWriter(bw, snapLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// analyzePaths runs wlanalyze's read path over paths into a full
// analysis and a beacon count, as `wlanalyze -reliability` does.
func analyzePaths(t *testing.T, paths []string) (*analysis.Result, *analysis.BeaconReliability, error) {
	t.Helper()
	a, err := analysis.New(analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	beacons := analysis.NewBeaconCounter(10)
	err = analyze(paths, func(rec capture.Record) {
		a.Feed(rec)
		beacons.Add(&rec)
	})
	return a.Result(), beacons.Result(), err
}

// TestPerSnifferPcapsMatchMergedAndStreamed splits DenseGrid (3×3
// cells, two sniffers per channel) into its six per-sniffer pcaps.
// wlanalyze's Result must equal both the batch analysis of the
// materialized, capture.Merge-d trace and the streamed Execute run of
// the same grid, and its beacon reliability must equal the batch
// count over the merged trace.
func TestPerSnifferPcapsMatchMergedAndStreamed(t *testing.T) {
	g := workload.DenseGrid().Scale(0.25)
	b, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	merged := b.Run()
	want := analysis.Analyze(merged)

	dir := t.TempDir()
	var paths []string
	captured := 0
	for _, sn := range b.Sniffers {
		path := filepath.Join(dir, sn.Config().Name+".pcap")
		writePcap(t, path, sn.Records(), sn.Config().SnapLen)
		paths = append(paths, path)
		captured += len(sn.Records())
	}
	if len(paths) != 6 || captured <= len(merged) {
		t.Fatalf("%d sniffers captured %d records for %d merged: the grid no longer has same-air duplicates to drop",
			len(paths), captured, len(merged))
	}

	got, rel, err := analyzePaths(t, paths)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("per-sniffer pcaps: %d frames, %d unrecorded; merged trace: %d frames, %d unrecorded",
			got.TotalFrames, got.Unrecorded.Total(), want.TotalFrames, want.Unrecorded.Total())
	}
	if wantRel := analysis.MeasureBeaconReliability(merged, 10); !reflect.DeepEqual(wantRel, rel) {
		t.Error("beacon reliability differs from the merged trace's")
	}

	ex, err := (&experiment.Runner{}).Execute(context.Background(), experiment.RunSpecOpts{
		Specs: []experiment.Spec{{Name: "grid9", Scale: 0.25, Scenario: experiment.NewGrid("grid9", g)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := ex.Results[0]; res.Err != nil || !reflect.DeepEqual(res.Result, got) {
		t.Errorf("streamed Execute run (err %v) differs from the per-sniffer pcaps' result", res.Err)
	}
}

// rec is a minimal record: its frame bytes carry tag, so distinct
// records never look like one transmission.
func rec(tm phy.Micros, wire int, r phy.Rate, tag byte) capture.Record {
	return capture.Record{
		Time: tm, Rate: r, Channel: phy.Channel1, NoiseDBm: -95,
		OrigLen: wire, Frame: []byte{0x80, 0, 0, 0, tag},
	}
}

// TestDisorderWithinHorizonIsSorted: a record may start up to exactly
// the horizon before the newest end read from its file, and is
// analyzed in start order.
func TestDisorderWithinHorizonIsSorted(t *testing.T) {
	first := rec(1_000_000, 1500, phy.Rate1Mbps, 1)
	end := first.Time + phy.Airtime(first.OrigLen, first.Rate)
	recs := []capture.Record{first, rec(end-horizon, 60, phy.Rate11Mbps, 2), rec(end, 60, phy.Rate11Mbps, 3)}
	path := filepath.Join(t.TempDir(), "edge.pcap")
	writePcap(t, path, recs, 0)

	got, _, err := analyzePaths(t, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if want := analysis.Analyze(recs); !reflect.DeepEqual(want, got) {
		t.Error("a record at the horizon's edge was not analyzed in start order")
	}
}

// TestDisorderedInputFails: an input that breaks the window's rule
// makes wlanalyze exit 1, printing no analysis and naming the file
// and the record's position in it.
func TestDisorderedInputFails(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.pcap")
	writePcap(t, good, []capture.Record{rec(0, 60, phy.Rate11Mbps, 1), rec(2_000_000, 60, phy.Rate11Mbps, 2)}, 0)

	first := rec(1_000_000, 1500, phy.Rate1Mbps, 1)
	end := first.Time + phy.Airtime(first.OrigLen, first.Rate)
	for _, tc := range []struct {
		name string
		recs []capture.Record
		want string
	}{
		// The newest end is the long first record's, not the short
		// second one's.
		{"starts-before-horizon",
			[]capture.Record{first, rec(first.Time+100, 60, phy.Rate11Mbps, 2), rec(end-horizon-1, 60, phy.Rate11Mbps, 3)},
			"record 3 starts at"},
		{"airtime-beyond-horizon",
			[]capture.Record{first, rec(end, experiment.MaxReorderWire+1, phy.Rate1Mbps, 2)},
			"record 2: airtime"},
		// A radiotap TSFT at or above 2^63.
		{"negative-timestamp",
			[]capture.Record{first, rec(-5, 60, phy.Rate11Mbps, 2)},
			"record 2: timestamp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, tc.name+".pcap")
			writePcap(t, bad, tc.recs, 0)
			for _, flags := range [][]string{nil, {"-reliability"}} {
				stdout, stderr, code := runWlanalyze(t, append(flags, good, bad)...)
				if code != 1 || stdout != "" || !strings.Contains(stderr, bad+": "+tc.want) {
					t.Errorf("wlanalyze %v: exit %d, stdout %d bytes, stderr %q; want exit 1, no output, %q",
						flags, code, len(stdout), stderr, bad+": "+tc.want)
				}
			}
		})
	}
}

// TestUnknownFigureFailsBeforeInput: a figure the paper does not have
// is a usage error (exit 2, no output) found before any input is
// read — with -reliability, which still has a table to print, and
// with an input that does not exist.
func TestUnknownFigureFailsBeforeInput(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.pcap")
	writePcap(t, good, []capture.Record{rec(0, 60, phy.Rate11Mbps, 1)}, 0)
	missing := filepath.Join(t.TempDir(), "missing.pcap")
	for _, args := range [][]string{
		{"-figure", "3", "-reliability", good},
		{"-figure", "3", missing},
		{"-figure", "16", "-reliability", missing},
	} {
		stdout, stderr, code := runWlanalyze(t, args...)
		if code != 2 || stdout != "" || stderr != "wlanalyze: no figure "+args[1]+"\n" {
			t.Errorf("wlanalyze %v: exit %d, stdout %q, stderr %q; want exit 2, no output, no figure %s",
				args, code, stdout, stderr, args[1])
		}
	}
}
