package experiment

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// collect runs pre-built specs through Execute's collect mode.
func collect(t testing.TB, workers int, specs []Spec) []RunResult {
	t.Helper()
	ex, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{Specs: specs, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ex.Results
}

// reduce runs pre-built specs through Execute's reduce mode.
func reduce(t testing.TB, workers int, specs []Spec) *Execution {
	t.Helper()
	ex, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{Mode: ModeReduce, Specs: specs, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// campaign starts (or, with opts.Resume, continues) a campaign through
// Execute and returns its state, partial on error.
func campaign(ctx context.Context, opts RunSpecOpts) (*CampaignResult, error) {
	opts.Mode = ModeCampaign
	ex, err := (&Runner{}).Execute(ctx, opts)
	if ex == nil {
		return nil, err
	}
	return ex.Campaign, err
}

// executeEveryMode runs m in collect, reduce and campaign mode (in a
// fresh directory) and fails on any run error.
func executeEveryMode(t *testing.T, m Matrix, workers int) map[RunMode]*Execution {
	t.Helper()
	out := make(map[RunMode]*Execution)
	for _, mode := range []RunMode{ModeCollect, ModeReduce, ModeCampaign} {
		opts := RunSpecOpts{Mode: mode, Matrix: m, Workers: workers}
		if mode == ModeCampaign {
			opts.CampaignDir = t.TempDir()
		}
		ex, err := (&Runner{}).Execute(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for i, rec := range ex.Campaign.Records {
			if !ex.Campaign.Done[i] || rec.Error != "" {
				t.Fatalf("%s: run %d not done: %+v", mode, i, rec)
			}
		}
		out[mode] = ex
	}
	return out
}

// checkModesAgree: every mode folds the same per-run records — only a
// campaign's carry a trace hash — and the same aggregates, which are
// also what Aggregate makes of collect's Results.
func checkModesAgree(t *testing.T, exs map[RunMode]*Execution) {
	t.Helper()
	col := exs[ModeCollect]
	want := Aggregate(col.Results)
	if len(col.Results) != len(col.Campaign.Records) {
		t.Fatalf("collect: %d results, %d records", len(col.Results), len(col.Campaign.Records))
	}
	for i, r := range col.Results {
		if rec := col.Campaign.Records[i]; rec.Summary != r.Summary || rec.Index != i || rec.Name != r.Spec.Name {
			t.Fatalf("collect record %d = %+v, its result %s summary %+v", i, rec, r.Spec.Name, r.Summary)
		}
	}
	for mode, ex := range exs {
		if !reflect.DeepEqual(ex.Campaign.Aggregates, want) {
			t.Errorf("%s aggregates differ from collect's:\n%+v\nvs\n%+v", mode, ex.Campaign.Aggregates, want)
		}
		recs := slices.Clone(ex.Campaign.Records)
		for i := range recs {
			if hashed := recs[i].TraceHash != ""; hashed != (mode == ModeCampaign) {
				t.Errorf("%s record %d trace hash %q", mode, i, recs[i].TraceHash)
			}
			recs[i].TraceHash = ""
		}
		if !reflect.DeepEqual(recs, col.Campaign.Records) {
			t.Errorf("%s records differ from collect's:\n%+v\nvs\n%+v", mode, recs, col.Campaign.Records)
		}
	}
}

// TestRunnerReduceMatchesCollect: the reduce path through Execute
// folds to the same records and aggregates as the collect path, and
// as a campaign over the same matrix.
func TestRunnerReduceMatchesCollect(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1, 2}, Scales: []float64{0.1}}
	checkModesAgree(t, executeEveryMode(t, m, 2))
}

// TestRunnerRange: a range-restricted Execute runs exactly the
// sub-slice of the expanded matrix, with the same per-run summaries.
func TestRunnerRange(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1, 2, 3}, Scales: []float64{0.1}}
	full, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{Mode: ModeCollect, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{
		Mode: ModeCollect, Matrix: m, Workers: 2, Range: &SpecRange{From: 1, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Results) != 2 {
		t.Fatalf("range [1,3) ran %d specs, want 2", len(part.Results))
	}
	for i, r := range part.Results {
		if r.Summary != full.Results[i+1].Summary {
			t.Fatalf("range result %d != full result %d", i, i+1)
		}
	}

	for _, bad := range []SpecRange{{From: -1, To: 1}, {From: 0, To: 4}, {From: 2, To: 2}} {
		if _, err := (&Runner{}).Execute(context.Background(), RunSpecOpts{Matrix: m, Range: &bad}); err == nil {
			t.Errorf("range %+v accepted for 3 specs", bad)
		}
	}
}

// TestRunnerRejections pins Execute's input validation.
func TestRunnerRejections(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	ctx := context.Background()
	if _, err := (&Runner{}).Execute(ctx, RunSpecOpts{Mode: "bogus", Matrix: m}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := (&Runner{}).Execute(ctx, RunSpecOpts{Mode: ModeCampaign, Matrix: m}); err == nil {
		t.Error("ModeCampaign without CampaignDir accepted")
	}
	specs, _ := m.Expand()
	if _, err := (&Runner{}).Execute(ctx, RunSpecOpts{Mode: ModeCampaign, CampaignDir: t.TempDir(), Specs: specs}); err == nil {
		t.Error("ModeCampaign with pre-built Specs accepted")
	}
}
