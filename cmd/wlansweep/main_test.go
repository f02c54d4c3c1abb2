package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wlan80211/internal/experiment"
)

// TestMain runs wlansweep itself instead of the tests when
// WLANSWEEP_ARGS is set (its arguments, one per line), so a test can
// check the real command's output and exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("WLANSWEEP_ARGS"); ok {
		os.Args = append([]string{"wlansweep"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wlansweep runs the real command with args and returns its combined
// output and exit status.
func wlansweep(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "WLANSWEEP_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("wlansweep %v: %v", args, err)
	return "", 0
}

// TestPlainReportMatchesCampaign: one matrix run plain and as a
// campaign writes the same -json report, byte for byte, once the
// campaign's per-run trace hashes are removed — one report shape for
// every way a matrix runs.
func TestPlainReportMatchesCampaign(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-scenarios", "sweep,day", "-runs", "2", "-scales", "0.1"}
	plainPath, campPath := filepath.Join(dir, "plain.json"), filepath.Join(dir, "campaign.json")
	if out, code := wlansweep(t, append(matrix, "-json", plainPath)...); code != 0 {
		t.Fatalf("plain run: exit %d\n%s", code, out)
	}
	if out, code := wlansweep(t, append(matrix, "-campaign", filepath.Join(dir, "c"), "-json", campPath)...); code != 0 {
		t.Fatalf("campaign run: exit %d\n%s", code, out)
	}
	plain, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := os.ReadFile(campPath)
	if err != nil {
		t.Fatal(err)
	}

	var rep experiment.CampaignReport
	if err := json.Unmarshal(camp, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 || len(rep.Aggregates) != 2 {
		t.Fatalf("campaign report has %d runs and %d aggregates, want 4 and 2", len(rep.Runs), len(rep.Aggregates))
	}
	for i := range rep.Runs {
		if rep.Runs[i].TraceHash == "" {
			t.Fatalf("campaign run %d has no trace hash", i)
		}
		rep.Runs[i].TraceHash = ""
	}
	unhashed, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if unhashed = append(unhashed, '\n'); !bytes.Equal(plain, unhashed) {
		t.Errorf("plain report differs from the campaign report without trace hashes:\n%s\nvs\n%s", plain, unhashed)
	}
}

// TestRunsBelowOneIsUsageError: -runs below 1 without -seeds names no
// seed to run, so it is a usage error (exit 2), not a run of each
// scenario's default seed.
func TestRunsBelowOneIsUsageError(t *testing.T) {
	for _, runs := range []string{"0", "-3"} {
		if out, code := wlansweep(t, "-scenarios", "sweep", "-runs", runs, "-scales", "0.1"); code != 2 {
			t.Errorf("-runs %s: exit %d, want 2\n%s", runs, code, out)
		}
	}
}
