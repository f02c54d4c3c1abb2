package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/workload"
)

// TestGridStreamingMatchesMaterialized is the grid bridge's acceptance
// gate, mirroring the day/sweep/ladder equivalence tests: a streamed
// grid run — multi-sniffer channels through the bare Reorder window
// the engine builds, and through the reference Dedup stage ahead of
// one — must produce a Result bit-identical to materializing every
// sniffer's trace, capture.Merge-ing them, and batch-analyzing. It
// also pins that the grid actually exercises the dedup: cross-sniffer
// duplicates collapsed, as many by both, and a bounded dedup table.
func TestGridStreamingMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	g := workload.DefaultGrid().Scale(0.5)

	mb, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.Analyze(mb.Run())
	if want.TotalFrames == 0 {
		t.Fatal("empty materialized grid trace")
	}

	sb, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := analysis.New(analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := analysis.New(analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro := NewReorder(a.Feed)
	dro := NewReorder(ref.Feed)
	dd := NewDedup(dro.Add)
	sb.RunStream(func(rec capture.Record) {
		ro.Add(rec)
		dd.Add(rec)
	})
	ro.Flush()
	dro.Flush()

	if !reflect.DeepEqual(want, a.Result()) {
		t.Error("streamed grid result differs from materialized batch result")
	}
	if !reflect.DeepEqual(want, ref.Result()) {
		t.Error("grid result through Dedup differs from materialized batch result")
	}
	if dd.Dropped == 0 {
		t.Error("grid stream produced no cross-sniffer duplicates; the dedup path is untested")
	}
	if ro.Dropped != dd.Dropped {
		t.Errorf("Reorder dropped %d duplicates, Dedup %d", ro.Dropped, dd.Dropped)
	}
	if dd.MaxPending() > 512 {
		t.Errorf("dedup table high-water mark %d; want a small constant", dd.MaxPending())
	}
	for _, sn := range sb.Sniffers {
		if len(sn.Records()) != 0 {
			t.Error("streaming grid sniffer materialized records")
		}
	}
}

// hashResult collapses a full analysis Result into a digest, the
// golden-hash pattern from internal/workload applied at the Result
// level: any bit of drift in any metric changes the hash.
func hashResult(t *testing.T, r *analysis.Result) string {
	t.Helper()
	enc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// TestGridMatrixDeterminism is the determinism property test for the
// new scenarios: the same grid matrix run twice, on 1, 2, and 8
// workers, must produce bit-identical Result hashes and aggregates —
// mobility, roaming, mixed-b/g adaptation, and the dedup window must
// all be pure functions of the seed, with no leakage from worker
// scheduling. Run under -race in CI it doubles as the data-race gate
// for the new paths.
func TestGridMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	m := Matrix{
		Scenarios: []string{"grid", "grid9"},
		Seeds:     []int64{1, 2},
		Scales:    []float64{0.25},
	}

	var ref []RunResult
	var refHashes []string
	for _, workers := range []int{1, 2, 8, 1} { // trailing 1: same config twice
		specs, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		results := collect(t, workers, specs)
		hashes := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, r.Err)
			}
			if r.Summary.Frames == 0 {
				t.Fatalf("workers=%d run %d captured nothing", workers, i)
			}
			hashes[i] = hashResult(t, r.Result)
		}
		if ref == nil {
			ref, refHashes = results, hashes
			continue
		}
		for i := range results {
			if hashes[i] != refHashes[i] {
				t.Errorf("workers=%d run %d result hash drifted:\n got %s\nwant %s", workers, i, hashes[i], refHashes[i])
			}
			if results[i].Summary != ref[i].Summary {
				t.Errorf("workers=%d run %d summary differs", workers, i)
			}
		}
		if !reflect.DeepEqual(Aggregate(results), Aggregate(ref)) {
			t.Errorf("workers=%d aggregates differ", workers)
		}
	}
}

// TestRunReduceMatchesRun checks the reduce-as-you-go mode against the
// materializing engine: bit-identical aggregates regardless of worker
// count, and peak retention bounded by the worker count — O(cells),
// not O(runs) — which is the footprint fix the mode exists for.
func TestRunReduceMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	m := Matrix{
		Scenarios: []string{"sweep"},
		Seeds:     []int64{1, 2, 3, 4, 5, 6},
		Scales:    []float64{0.1},
	}
	specsA, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	specsB, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := Aggregate(collect(t, 2, specsA))

	ex := reduce(t, 3, specsB)
	got := ex.Aggregates
	for i, e := range ex.Errs {
		if e != nil {
			t.Fatalf("reduce run %d: %v", i, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reduced aggregates differ from materialized:\n got %+v\nwant %+v", got, want)
	}
	if peak := ex.PeakPending; peak > 3 {
		t.Errorf("reduce mode retained %d pending summaries; want ≤ workers (3), independent of the %d runs",
			peak, len(specsB))
	}
}

// errScenario builds nothing, for the reduce error path.
type errScenario struct{}

func (errScenario) Name() string        { return "err" }
func (errScenario) Params() []Param     { return nil }
func (errScenario) Build() (Run, error) { return nil, errors.New("boom") }

// TestRunReduceCountsErrors checks failed cells land in the error
// slice and the group's Errors count without contributing samples.
func TestRunReduceCountsErrors(t *testing.T) {
	specs := []Spec{
		{Name: "err", Scale: 1, Scenario: errScenario{}},
		{Name: "err", Scale: 1, Scenario: errScenario{}},
	}
	ex := reduce(t, 2, specs)
	aggs, errs := ex.Aggregates, ex.Errs
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("errors not reported: %v", errs)
	}
	if len(aggs) != 1 || aggs[0].Errors != 2 || aggs[0].Runs != 0 {
		t.Fatalf("aggregates = %+v, want one group with 2 errors, 0 runs", aggs)
	}
}

// TestGridMatrixGoldenResults pins the full analysis Results of the
// reference grid matrix to committed hashes — the experiment-level
// equivalence gate for behaviour-preserving simulator refactors (the
// lazy DCF countdown landed against these values unchanged). A drift
// here means simulated physics or analysis arithmetic moved, not just
// event bookkeeping; regenerate together with the workload goldens
// (see -update-golden there) only for deliberate changes.
func TestGridMatrixGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	want := []string{
		"d941c7da8da14f4c4743353717f97c0f3bf5e004e0548d625930ab299f8a177e",
		"8d8e98d89e4366edc31481321438e3d7a331418f8971269cf7f415e7ff5717ec",
		"22c57cf9990e98595a62cc47664b843bfedd587cbe456f1bce5e2ed673f73d34",
		"04c1699981ab7a928031359c80da8bec9899fa9f89dc426e43b84a4af2165b79",
	}
	specs, err := (Matrix{
		Scenarios: []string{"grid", "grid9"},
		Seeds:     []int64{1, 2},
		Scales:    []float64{0.25},
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, 2, specs)
	if len(results) != len(want) {
		t.Fatalf("matrix produced %d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
		if got := hashResult(t, r.Result); got != want[i] {
			t.Errorf("run %d (%s seed=%d) result hash drifted:\n got %s\nwant %s",
				i, r.Spec.Name, r.Spec.Seed, got, want[i])
		}
	}
}
