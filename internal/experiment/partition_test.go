package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPartitionFoldByteIdentical is the distributed-sweep property
// test: for random partitions of the matrix's spec range — including
// overlapping ranges, which model a reassigned lease rerunning
// another worker's specs — running each range as its own
// range-restricted campaign and folding the per-range journals with
// FoldRecords yields aggregates and report JSON byte-identical to the
// unpartitioned campaign.
func TestPartitionFoldByteIdentical(t *testing.T) {
	m := Matrix{Scenarios: []string{"day", "grid"}, Seeds: []int64{1, 2}, Scales: []float64{0.1}}
	ctx := context.Background()

	refDir := t.TempDir()
	ref, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 2, CampaignDir: refDir})
	if err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := json.MarshalIndent(ref.Report(man), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	n := len(ref.Specs)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		// Random contiguous partition of [0,n), then stretch some
		// ranges one spec to the right so neighbors overlap.
		var ranges []SpecRange
		for from := 0; from < n; {
			to := from + 1 + rng.Intn(n-from)
			ranges = append(ranges, SpecRange{From: from, To: to})
			from = to
		}
		for i := range ranges {
			if ranges[i].To < n && rng.Intn(2) == 0 {
				ranges[i].To++ // overlapping lease: duplicate runs
			}
		}

		var recs []RunRecord
		for i, r := range ranges {
			dir := filepath.Join(t.TempDir(), "shard")
			if _, err := campaign(ctx, RunSpecOpts{Matrix: m, Workers: 2, CampaignDir: dir, Range: &r}); err != nil {
				t.Fatalf("trial %d range %d %+v: %v", trial, i, r, err)
			}
			shard, err := ReadJournal(JournalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if len(shard) < r.To-r.From {
				t.Fatalf("trial %d range %+v journaled %d records", trial, r, len(shard))
			}
			recs = append(recs, shard...)
		}
		if len(recs) <= n {
			// The overlap coin flips should usually produce duplicates;
			// when they did, the fold below proves dedup. Not fatal —
			// a no-overlap draw still tests the partition property.
			t.Logf("trial %d: no overlapping ranges drawn", trial)
		}

		// Shuffle upload order: folding is spec-ordered, not
		// arrival-ordered.
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		folded, err := FoldRecords(man, recs)
		if err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		if folded.FromJournal != n {
			t.Fatalf("trial %d: folded %d unique records, want %d", trial, folded.FromJournal, n)
		}
		if !reflect.DeepEqual(folded.Aggregates, ref.Aggregates) {
			t.Fatalf("trial %d: folded aggregates differ from unpartitioned campaign", trial)
		}
		gotReport, err := json.MarshalIndent(folded.Report(man), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotReport, wantReport) {
			t.Fatalf("trial %d: folded report differs:\n--- folded ---\n%s\n--- reference ---\n%s", trial, gotReport, wantReport)
		}
	}
}

// TestFoldRecordsConflict: a record disagreeing with an already-folded
// one for the same spec index must fail the fold, not silently win; so
// must a record that names no matrix run, or no completed one.
func TestFoldRecordsConflict(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	man := Manifest{Version: 1, Matrix: m}
	a := RunRecord{Index: 0, Name: "day", Seed: 1, Scale: 0.1, TraceHash: "aaaa"}
	b := a
	b.TraceHash = "bbbb"
	if _, err := FoldRecords(man, []RunRecord{a, a}); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if _, err := FoldRecords(man, []RunRecord{a, b}); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
	bad := a
	bad.Index = 5
	if _, err := FoldRecords(man, []RunRecord{bad}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	wrong := a
	wrong.Seed = 9
	if _, err := FoldRecords(man, []RunRecord{wrong}); err == nil {
		t.Fatal("identity mismatch accepted")
	}
	// Only a completed campaign run folds: a plain run's unhashed
	// record or a failed run's must not enter a campaign.
	unhashed, failed := a, a
	unhashed.TraceHash, failed.Error = "", "boom"
	for _, rec := range []RunRecord{unhashed, failed} {
		if _, err := FoldRecords(man, []RunRecord{rec}); err == nil {
			t.Fatalf("record %+v accepted", rec)
		}
	}
}
