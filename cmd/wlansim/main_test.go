package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wlan80211/internal/capture"
	"wlan80211/internal/workload"
)

// TestMain runs wlansim itself instead of the tests when WLANSIM_ARGS
// is set (its arguments, one per line), so a test can check the real
// command's output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("WLANSIM_ARGS"); ok {
		os.Args = append([]string{"wlansim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const snapLen = 250

// pcapOf writes recs as the radiotap pcap wlansim writes.
func pcapOf(t *testing.T, recs []capture.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf, snapLen)
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
	return buf.Bytes()
}

// wlansim runs the real command with args and returns its combined
// output and exit status.
func wlansim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WLANSIM_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("wlansim %v: %v", args, err)
	return "", 0
}

// TestExitStatus: an unknown scenario or a scale that is not a finite
// number above 0 is a usage error (exit 2, as in wlansweep and
// ietfrepro) that writes no file; an output path that cannot be
// created is a run error (exit 1).
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.pcap")
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-scenario", "nosuch", "-o", out}, 2},
		{[]string{"-scenario", "day", "-scale", "0", "-o", out}, 2},
		{[]string{"-scenario", "day", "-scale", "-1", "-o", out}, 2},
		{[]string{"-scenario", "day", "-scale", "NaN", "-o", out}, 2},
		{[]string{"-scenario", "day", "-scale", "0.05", "-o", filepath.Join(dir, "missing", "x.pcap")}, 1},
	}
	for _, c := range cases {
		msg, code := wlansim(t, c.args...)
		if code != c.want {
			t.Errorf("wlansim %v: exit %d, want %d\n%s", c.args, code, c.want, msg)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected invocation left %s behind (stat: %v)", out, err)
	}
}

func materialized(t *testing.T, build func() (*workload.Built, error)) []capture.Record {
	t.Helper()
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return b.Run()
}

// TestStreamedPcapMatchesMaterialized: the pcap wlansim streams
// through the reorder window is byte for byte the pcap of the
// materialized, merged trace of the same scenario — for a paper
// session, a multi-sniffer grid whose duplicates the window drops,
// and the sweep ladder.
func TestStreamedPcapMatchesMaterialized(t *testing.T) {
	cases := []struct {
		scenario, scale string
		want            func() []capture.Record
	}{
		{"day", "0.1", func() []capture.Record { return materialized(t, workload.DaySession().Scale(0.1).Build) }},
		{"grid9", "0.25", func() []capture.Record { return materialized(t, workload.DenseGrid().Scale(0.25).Build) }},
		{"ladder", "0.1", func() []capture.Record { return workload.MultiSweep(workload.DefaultLadder(0.1)) }},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.scenario+".pcap")
			if out, code := wlansim(t, "-scenario", c.scenario, "-scale", c.scale, "-snaplen", strconv.Itoa(snapLen), "-o", path); code != 0 {
				t.Fatalf("wlansim: exit %d\n%s", code, out)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := c.want()
			if len(recs) == 0 {
				t.Fatal("empty materialized trace")
			}
			if want := pcapOf(t, recs); !bytes.Equal(got, want) {
				t.Errorf("streamed pcap (%d bytes) differs from the materialized trace's (%d bytes, %d records)",
					len(got), len(want), len(recs))
			}
		})
	}
}
