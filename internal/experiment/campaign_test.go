package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlan80211/internal/experiment/faultinject"
)

// TestRerunTraceHashIsDeterministic: resume reruns an interrupted
// run from t=0, so the campaign cell must journal the same record
// every time it runs a spec. Each scenario runs twice through the
// cell, each time into its own journal, and the records must match —
// trace hash and Summary. The goldens pin day, plenary, sweep, grid
// and grid256 on their own; grid9 (multi-sniffer dedup) and ladder
// (rung epochs) have only this.
func TestRerunTraceHashIsDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
	}{
		{"day", 0.1},
		{"plenary", 0.1},
		{"sweep", 0.15},
		{"ladder", 0.1},
		{"grid", 0.5},
		{"grid9", 0.35},
		{"grid256", 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var recs [2]RunRecord
			for i := range recs {
				sc, err := New(tc.name, 1, tc.scale)
				if err != nil {
					t.Fatal(err)
				}
				j, _, err := openJournal(filepath.Join(t.TempDir(), journalName))
				if err != nil {
					t.Fatal(err)
				}
				spec := Spec{Name: tc.name, Seed: 1, Scale: tc.scale, Scenario: sc}
				c := runCell(spec, 0, nil, j, nil)
				j.close()
				if c.rr.Err != nil {
					t.Fatal(c.rr.Err)
				}
				recs[i] = c.rec
			}
			if recs[0].TraceHash == "" || recs[0].Summary.Frames == 0 {
				t.Fatalf("empty run: %+v", recs[0])
			}
			if recs[1] != recs[0] {
				t.Fatalf("rerun journaled %+v, first run %+v", recs[1], recs[0])
			}
		})
	}
}

func campaignMatrix() Matrix {
	return Matrix{
		Scenarios: []string{"day", "grid"},
		Seeds:     []int64{1, 2},
		Scales:    []float64{0.1},
	}
}

// TestCampaignKillAndResume is the fault-injection acceptance
// criterion: for every crash-point kind, a campaign killed at that
// instant and resumed yields aggregates, per-run trace hashes, and a
// JSON report bit-identical to a campaign that never crashed.
func TestCampaignKillAndResume(t *testing.T) {
	ctx := context.Background()
	m := campaignMatrix()

	refDir := t.TempDir()
	ref, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: refDir})
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if got := len(ref.Records); got != 4 {
		t.Fatalf("reference has %d records, want 4", got)
	}
	refMan, err := ReadManifest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref.Report(refMan))
	if err != nil {
		t.Fatal(err)
	}

	plans := []faultinject.Plan{
		{Point: faultinject.AfterRun, Run: 1},
		{Point: faultinject.JournalWrite, Run: 1},
	}
	// A seeded schedule is deterministic and lands on a real point.
	sched := faultinject.Schedule(42, 4)
	if sched != faultinject.Schedule(42, 4) {
		t.Fatal("Schedule not deterministic")
	}
	if sched.Point == faultinject.None || sched.Run < 0 || sched.Run >= 4 {
		t.Fatalf("Schedule produced unusable plan %+v", sched)
	}
	plans = append(plans, sched)

	for _, plan := range plans {
		t.Run(plan.String(), func(t *testing.T) {
			dir := t.TempDir()
			_, err := campaign(ctx, RunSpecOpts{
				Matrix: m, Workers: 1, CampaignDir: dir, Injector: faultinject.New(plan),
			})
			var crashed faultinject.Crashed
			if !errors.As(err, &crashed) {
				t.Fatalf("campaign did not crash: err=%v", err)
			}

			resumed, err := campaign(ctx, RunSpecOpts{Workers: 1, CampaignDir: dir, Resume: true})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(resumed.Aggregates, ref.Aggregates) {
				t.Fatalf("resumed aggregates differ:\n%+v\nvs\n%+v", resumed.Aggregates, ref.Aggregates)
			}
			if !reflect.DeepEqual(resumed.Records, ref.Records) {
				t.Fatalf("resumed per-run records (trace hashes) differ:\n%+v\nvs\n%+v", resumed.Records, ref.Records)
			}
			if resumed.FromJournal == 0 && plan.Point != faultinject.JournalWrite && plan.Run > 0 {
				t.Error("resume re-ran everything; journal was not used")
			}
			man, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(resumed.Report(man))
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(refJSON) {
				t.Fatalf("resumed report JSON differs from uninterrupted reference:\n%s\nvs\n%s", gotJSON, refJSON)
			}
			// Resuming a finished campaign is a no-op fold from the
			// journal alone.
			again, err := campaign(ctx, RunSpecOpts{Workers: 1, CampaignDir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if again.FromJournal != 4 {
				t.Fatalf("second resume re-ran runs: FromJournal=%d", again.FromJournal)
			}
			if !reflect.DeepEqual(again.Aggregates, ref.Aggregates) {
				t.Fatal("second resume aggregates differ")
			}
		})
	}
}

// TestCampaignInterruptedContext: a context cancel behaves like a
// graceful SIGINT — in-flight runs finish and journal, and a later
// resume completes the matrix to the bit-identical reference.
func TestCampaignInterruptedContext(t *testing.T) {
	m := campaignMatrix()

	ref, err := campaign(context.Background(), RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before dispatch: nothing runs, nothing breaks
	res, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	for i, done := range res.Done {
		if done {
			t.Fatalf("run %d journaled although the campaign was canceled before dispatch", i)
		}
	}
	if recs, err := ReadJournal(JournalPath(dir)); err != nil || len(recs) != 0 {
		t.Fatalf("journal after pre-dispatch cancel: %d records, err %v; want none", len(recs), err)
	}
	resumed, err := campaign(context.Background(), RunSpecOpts{Workers: 1, CampaignDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Aggregates, ref.Aggregates) {
		t.Fatal("aggregates after cancel+resume differ from reference")
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWriteFile(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	// Two valid records, then a torn half-line with no terminator.
	j, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	r0 := RunRecord{Index: 0, Name: "day", Seed: 1, Scale: 0.1, TraceHash: "aaaa"}
	r1 := RunRecord{Index: 1, Name: "day", Seed: 2, Scale: 0.1, TraceHash: "bbbb"}
	if err := j.append(r0, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.append(r1, nil); err != nil {
		t.Fatal(err)
	}
	j.close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), full...), []byte(`{"crc":"00000000","rec":{"index":2`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := openJournal(path)
	if err != nil {
		t.Fatalf("torn tail not forgiven: %v", err)
	}
	if len(recs) != 2 || recs[0] != r0 || recs[1] != r1 {
		t.Fatalf("recovered records = %+v", recs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(full) {
		t.Fatal("torn tail not truncated")
	}
	// And appending after recovery yields a clean record.
	r2 := RunRecord{Index: 2, Name: "grid", Seed: 1, Scale: 0.1, TraceHash: "cccc"}
	if err := j2.append(r2, nil); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, recs3, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if len(recs3) != 3 || recs3[2] != r2 {
		t.Fatalf("after recovery+append: %+v", recs3)
	}
}

func TestJournalCorruptionNotAtTailFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.append(RunRecord{Index: 0, Name: "day", Scale: 0.1}, nil)
	j.append(RunRecord{Index: 1, Name: "day", Scale: 0.1}, nil)
	j.close()
	data, _ := os.ReadFile(path)
	data[10] ^= 0x40 // damage the FIRST line
	os.WriteFile(path, data, 0o644)
	if _, _, err := openJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestCampaignRejectsDifferentMatrix(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	if _, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: dir}); err != nil {
		t.Fatal(err)
	}
	m2 := m
	m2.Seeds = []int64{9}
	if _, err := campaign(ctx, RunSpecOpts{Matrix: m2, Workers: 1, CampaignDir: dir}); err == nil {
		t.Fatal("different matrix accepted into existing campaign dir")
	}
}

func TestCampaignParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	m := campaignMatrix()
	a, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 4, CampaignDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Aggregates, b.Aggregates) {
		t.Fatal("worker count changed campaign aggregates")
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("worker count changed campaign records")
	}
}

// TestCampaignMatchesEngine: campaign records and aggregates are
// bit-identical to the plain engine paths' over the same matrix (the
// hashing stage must not perturb analysis).
func TestCampaignMatchesEngine(t *testing.T) {
	checkModesAgree(t, executeEveryMode(t, campaignMatrix(), 1))
}

// TestResumeRejectsConflictingJournalRecords: two campaign processes
// pointed at one directory can both append. Records for one run that
// disagree — here, CRC-valid but with different trace hashes — mean
// a deterministic run diverged, and resume must fail naming both
// hashes rather than let the last record win.
func TestResumeRejectsConflictingJournalRecords(t *testing.T) {
	dir := t.TempDir()
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	if err := WriteJSONAtomic(filepath.Join(dir, manifestName), Manifest{Version: 1, Matrix: m}); err != nil {
		t.Fatal(err)
	}
	j, _, err := openJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := RunRecord{Index: 0, Name: "day", Seed: 1, Scale: 0.1, TraceHash: "aaaa"}
	other := rec
	other.TraceHash = "bbbb"
	for _, r := range []RunRecord{rec, other} {
		if err := j.append(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	_, err = campaign(context.Background(), RunSpecOpts{Workers: 1, CampaignDir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "aaaa") || !strings.Contains(err.Error(), "bbbb") {
		t.Fatalf("conflicting journal records not rejected with both hashes: %v", err)
	}
}

// TestResumeCampaignDirWithSnapshotLeftovers: a campaign directory
// written when runs took mid-run snapshots — a manifest carrying
// checkpoint_micros, a leftover snapshots/ directory — still resumes,
// to a report byte-identical to an uninterrupted campaign. The old
// key is ignored, and the leftover files are neither read nor deleted.
func TestResumeCampaignDirWithSnapshotLeftovers(t *testing.T) {
	ctx := context.Background()
	m := campaignMatrix()
	refDir := t.TempDir()
	ref, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: refDir})
	if err != nil {
		t.Fatal(err)
	}

	// Runs 0 and 1 journaled, run 2 in flight with a snapshot.
	dir := t.TempDir()
	oldManifest := `{
  "version": 1,
  "matrix": {
    "Scenarios": [
      "day",
      "grid"
    ],
    "Seeds": [
      1,
      2
    ],
    "Scales": [
      0.1
    ]
  },
  "checkpoint_micros": 2000000
}
`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(oldManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := openJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ref.Records[:2] {
		if err := j.append(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	snap := filepath.Join(dir, "snapshots", "run-2.snap")
	if err := os.MkdirAll(filepath.Dir(snap), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, []byte("stale mid-run snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := campaign(ctx, RunSpecOpts{Workers: 1, CampaignDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.FromJournal != 2 {
		t.Fatalf("FromJournal = %d, want 2", resumed.FromJournal)
	}
	report := func(dir string, res *CampaignResult) []byte {
		t.Helper()
		man, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := WriteJSONAtomic(path, res.Report(man)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got, want := report(dir, resumed), report(refDir, ref); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("leftover snapshot touched: %v", err)
	}
}

func init() {
	// Guard: tests in this file assume these registry names exist.
	for _, n := range []string{"day", "plenary", "sweep", "ladder", "grid", "grid9", "grid256"} {
		found := false
		for _, have := range Names() {
			if have == n {
				found = true
			}
		}
		if !found {
			panic(fmt.Sprintf("campaign_test: scenario %q missing from registry", n))
		}
	}
}
