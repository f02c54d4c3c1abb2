package experiment

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wlan80211/internal/capture"
)

// fakeScenario is a registry-free Scenario whose run emits nothing and
// invokes a hook — enough to exercise the worker pool's dispatch logic
// without simulator cost.
type fakeScenario struct {
	name     string
	onStream func()
}

func (f fakeScenario) Name() string        { return f.name }
func (f fakeScenario) Params() []Param     { return nil }
func (f fakeScenario) Build() (Run, error) { return fakeRun{f.onStream}, nil }

type fakeRun struct{ onStream func() }

func (f fakeRun) RunStream(func(capture.Record)) {
	if f.onStream != nil {
		f.onStream()
	}
}

func fakeSpecs(n int, onFirstStream func()) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		hook := func() {}
		if i == 0 {
			hook = onFirstStream
		}
		specs[i] = Spec{Name: "fake", Seed: int64(i + 1), Scale: 1, Scenario: fakeScenario{"fake", hook}}
	}
	return specs
}

// fakeFirstRunHook is what the registered "fake" scenario's seed-1
// run calls. Campaign mode re-expands a Matrix from the registry, so
// a campaign test cannot hand it pre-built specs; it sets this hook
// instead.
var fakeFirstRunHook = func() {}

func init() {
	Register("fake", func(seed int64, scale float64) Scenario {
		return fakeScenario{"fake", func() {
			if seed == 1 {
				fakeFirstRunHook()
			}
		}}
	})
}

// checkCancelSuffix asserts the cancellation property shared by every
// run mode, given which specs completed and each spec's error: the
// first (in-flight) run completed, completed runs form a prefix, and
// every later spec carries ctx.Err() (or, in a campaign, is simply not
// done). The single worker's window hands out spec i+1 only after
// spec i folds, and the pool checks ctx before dispatching, so a
// cancel inside the first run stops dispatch right after it.
func checkCancelSuffix(t *testing.T, done []bool, errs []error) {
	t.Helper()
	if !done[0] {
		t.Fatal("first (in-flight) run did not complete")
	}
	completed := 0
	for i := range done {
		switch {
		case done[i] && completed < i:
			t.Fatalf("spec %d completed after a canceled spec: cancellation must be a suffix", i)
		case done[i]:
			completed++
		case errs != nil && !errors.Is(errs[i], context.Canceled):
			t.Fatalf("spec %d: error %v, want context.Canceled", i, errs[i])
		}
	}
	if completed != 1 {
		t.Fatalf("%d of %d specs completed; cancellation did not stop dispatch after the first", completed, len(done))
	}
}

// TestRunContextCancel cancels the context from inside the first run
// of a collect-mode Execute: the first run completes, every
// undispatched spec comes back with ctx.Err() in its RunResult and in
// Errs, and the canceled specs form a suffix (cancellation stops
// dispatch, it never abandons in-flight work).
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := fakeSpecs(6, cancel)
	ex, err := (&Runner{}).Execute(ctx, RunSpecOpts{Specs: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, len(specs))
	for i, r := range ex.Results {
		done[i] = r.Err == nil
		if r.Err != ex.Errs[i] {
			t.Fatalf("spec %d: RunResult.Err %v != Errs %v", i, r.Err, ex.Errs[i])
		}
	}
	checkCancelSuffix(t, done, ex.Errs)
}

// TestRunReduceContextCancel is the same property on the
// reduce-as-you-go path: canceled specs land in Errs but get no record,
// so Aggregated counts only the completed runs, which still fold.
func TestRunReduceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs := fakeSpecs(6, cancel)
	ex, err := (&Runner{}).Execute(ctx, RunSpecOpts{Mode: ModeReduce, Specs: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aggs := ex.Campaign.Aggregates
	if len(aggs) != 1 {
		t.Fatalf("%d aggregate groups, want 1", len(aggs))
	}
	done := make([]bool, len(specs))
	canceled := 0
	for i, err := range ex.Errs {
		done[i] = err == nil
		if !done[i] {
			canceled++
		}
	}
	checkCancelSuffix(t, done, ex.Errs)
	if aggs[0].Errors != 0 {
		t.Fatalf("Aggregated.Errors = %d: %d canceled specs were counted as failed runs", aggs[0].Errors, canceled)
	}
	for i, d := range ex.Campaign.Done {
		if d != done[i] {
			t.Fatalf("spec %d: Done %v, completed %v", i, d, done[i])
		}
	}
	if aggs[0].Runs != len(specs)-canceled {
		t.Fatalf("Aggregated.Runs = %d, want %d", aggs[0].Runs, len(specs)-canceled)
	}
}

// TestCampaignContextCancel is the same property in campaign mode: a
// cancel inside the first run journals that run and nothing after it,
// and Execute reports the context error with the partial state.
func TestCampaignContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fakeFirstRunHook = cancel
	defer func() { fakeFirstRunHook = func() {} }()
	m := Matrix{Scenarios: []string{"fake"}, Seeds: []int64{1, 2, 3, 4, 5, 6}}
	dir := t.TempDir()
	res, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 1, CampaignDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkCancelSuffix(t, res.Done, nil)
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Index != 0 {
		t.Fatalf("journal holds %+v, want only run 0", recs)
	}
}

// TestInterruptedReportsMatch runs one matrix plain (reduce mode) and
// as a campaign under a context canceled before dispatch and under one
// canceled inside the first run: each pair of reports is byte-equal
// once the campaign's trace hashes are removed, so neither lists an
// undispatched run.
func TestInterruptedReportsMatch(t *testing.T) {
	m := Matrix{Scenarios: []string{"fake"}, Seeds: []int64{1, 2, 3, 4, 5, 6}}
	for _, tc := range []struct {
		name    string
		inRun   bool // cancel inside seed 1's run, not before dispatch
		wantRun int
	}{{"before-dispatch", false, 0}, {"first-run", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			report := func(opts RunSpecOpts, man func() Manifest) []byte {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.inRun {
					fakeFirstRunHook = cancel
					defer func() { fakeFirstRunHook = func() {} }()
				} else {
					cancel()
				}
				opts.Matrix, opts.Workers = m, 1
				ex, err := (&Runner{}).Execute(ctx, opts)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				res := ex.Campaign
				if n := len(res.Report(man()).Runs); n != tc.wantRun {
					t.Fatalf("%s report lists %d runs, want %d", opts.Mode, n, tc.wantRun)
				}
				for i := range res.Records {
					res.Records[i].TraceHash = ""
				}
				data, err := res.ReportJSON(man())
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			plain := report(RunSpecOpts{Mode: ModeReduce}, func() Manifest { return Manifest{Matrix: m} })
			dir := t.TempDir()
			camp := report(RunSpecOpts{Mode: ModeCampaign, CampaignDir: dir}, func() Manifest {
				man, err := ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				return man
			})
			if !bytes.Equal(plain, camp) {
				t.Errorf("interrupted plain report differs from the campaign's without trace hashes:\n%s\nvs\n%s", plain, camp)
			}
		})
	}
}

// TestRunContextUncanceled pins that the context path is transparent
// when the context never fires.
func TestRunContextUncanceled(t *testing.T) {
	specs := fakeSpecs(4, func() {})
	ex, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{Specs: specs, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ex.Results {
		if r.Err != nil {
			t.Fatalf("run failed: %v", r.Err)
		}
	}
	red := reduce(t, 2, specs)
	aggs := red.Campaign.Aggregates
	for _, err := range red.Errs {
		if err != nil {
			t.Fatalf("reduce run failed: %v", err)
		}
	}
	if aggs[0].Runs != 4 || aggs[0].Errors != 0 {
		t.Fatalf("aggregate runs=%d errors=%d, want 4/0", aggs[0].Runs, aggs[0].Errors)
	}
}
