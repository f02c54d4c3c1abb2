package experiment

import (
	"math/rand"
	"reflect"
	"testing"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/phy"
	"wlan80211/internal/workload"
)

// streamResult runs the named registry scenario through the full
// streaming bridge (emit → Reorder → sequential Analyzer), the exact
// path runOne takes.
func streamResult(t *testing.T, name string, seed int64, scale float64) *analysis.Result {
	t.Helper()
	sc, err := New(name, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	res := collect(t, 1, []Spec{{Name: name, Seed: seed, Scale: scale, Scenario: sc}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	return res[0].Result
}

// TestStreamingMatchesMaterialized is the engine's acceptance gate:
// for a fixed seed, a Tap-fed streamed run must produce a Result
// bit-identical to materializing the trace and batch-analyzing it —
// across all three scenario shapes, including the multi-channel,
// multi-sniffer day session.
func TestStreamingMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	t.Run("day", func(t *testing.T) {
		b, err := workload.DaySession().Scale(0.1).Build()
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.Analyze(b.Run())
		got := streamResult(t, "day", 0, 0.1)
		if want.TotalFrames == 0 {
			t.Fatal("empty materialized trace")
		}
		if !reflect.DeepEqual(want, got) {
			t.Error("streamed day result differs from materialized batch result")
		}
	})
	t.Run("sweep", func(t *testing.T) {
		b, err := workload.DefaultSweep().Scale(0.15).Build()
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.Analyze(b.Run())
		got := streamResult(t, "sweep", 0, 0.15)
		if !reflect.DeepEqual(want, got) {
			t.Error("streamed sweep result differs from materialized batch result")
		}
	})
	t.Run("ladder", func(t *testing.T) {
		want := analysis.Analyze(workload.MultiSweep(workload.DefaultLadder(0.1)))
		got := streamResult(t, "ladder", 0, 0.1)
		if !reflect.DeepEqual(want, got) {
			t.Error("streamed ladder result differs from MultiSweep batch result")
		}
	})
}

// TestMatrixParallelDeterminism runs the same ≥8-cell matrix on one
// worker and on several, and demands identical per-run summaries and
// aggregates: completion order must not leak into results. Run under
// -race in CI, this is also the engine's data-race gate.
func TestMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	m := Matrix{
		Scenarios: []string{"sweep"},
		Seeds:     []int64{7, 8},
		Scales:    []float64{0.1, 0.15},
	}
	specsA, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	specsB, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specsA) < 4 {
		t.Fatalf("matrix expanded to %d cells", len(specsA))
	}

	serial := collect(t, 1, specsA)
	parallel := collect(t, 4, specsB)

	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("run %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Summary != parallel[i].Summary {
			t.Errorf("run %d summary differs across worker counts:\n serial  %+v\n parallel %+v",
				i, serial[i].Summary, parallel[i].Summary)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("run %d full result differs across worker counts", i)
		}
	}
	if !reflect.DeepEqual(Aggregate(serial), Aggregate(parallel)) {
		t.Error("aggregates differ across worker counts")
	}
}

// TestAggregateGroupsAndReduces checks the scenario+scale grouping and
// the mean/stddev reduction on hand-built results.
func TestAggregateGroupsAndReduces(t *testing.T) {
	mk := func(name string, scale float64, frames int64) RunResult {
		return RunResult{
			Spec:    Spec{Name: name, Scale: scale},
			Summary: Summary{Frames: frames},
			Result:  &analysis.Result{},
		}
	}
	aggs := Aggregate([]RunResult{
		mk("a", 0.5, 100),
		mk("a", 0.5, 200),
		mk("b", 0.5, 10),
		{Spec: Spec{Name: "b", Scale: 0.5}, Err: errFake},
	})
	if len(aggs) != 2 {
		t.Fatalf("got %d groups, want 2", len(aggs))
	}
	a := aggs[0]
	if a.Scenario != "a" || a.Runs != 2 {
		t.Fatalf("group a = %+v", a)
	}
	f := a.Field("frames")
	if f.Mean != 150 {
		t.Errorf("frames mean = %v, want 150", f.Mean)
	}
	if f.Stddev < 70 || f.Stddev > 71 {
		t.Errorf("frames stddev = %v, want ~70.7", f.Stddev)
	}
	b := aggs[1]
	if b.Runs != 1 || b.Errors != 1 {
		t.Errorf("group b runs/errors = %d/%d, want 1/1", b.Runs, b.Errors)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

// TestReorderRestoresStartOrder feeds a synthetic end-ordered stream
// with overlapping frames and checks the output is start-ordered with
// arrival-stable ties — the order capture.Merge's sort would produce.
func TestReorderRestoresStartOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type obs struct {
		start phy.Micros
		len   int
	}
	// Random overlapping transmissions, delivered in end order.
	var all []obs
	var tme phy.Micros
	for i := 0; i < 500; i++ {
		tme += phy.Micros(rng.Intn(2000))
		all = append(all, obs{start: tme, len: 100 + rng.Intn(1400)})
	}
	ends := make([]phy.Micros, len(all))
	idx := make([]int, len(all))
	for i, o := range all {
		ends[i] = o.start + phy.Airtime(o.len, phy.Rate1Mbps)
		idx[i] = i
	}
	// Deliver in end order (stable on ties).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && ends[idx[j]] < ends[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}

	var got []capture.Record
	ro := NewReorder(func(rec capture.Record) {
		cp := rec
		cp.Frame = append([]byte(nil), rec.Frame...)
		got = append(got, cp)
	})
	frame := make([]byte, 4)
	for _, i := range idx {
		o := all[i]
		frame[0], frame[1] = byte(i), byte(i>>8)
		ro.Add(capture.Record{
			Time: o.start, Rate: phy.Rate1Mbps, Channel: phy.Channel1,
			OrigLen: o.len, Frame: frame,
		})
	}
	ro.Flush()

	if len(got) != len(all) {
		t.Fatalf("got %d records, want %d", len(got), len(all))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("output not start-ordered at %d: %d after %d", i, got[i].Time, got[i-1].Time)
		}
	}
	// Against the reference: stable sort of delivery order by start.
	ref := make([]int, len(idx))
	copy(ref, idx)
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && all[ref[j]].start < all[ref[j-1]].start; j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	for i, want := range ref {
		if id := int(got[i].Frame[0]) | int(got[i].Frame[1])<<8; id != want {
			t.Fatalf("record %d is transmission %d, want %d (tie order broken)", i, id, want)
		}
	}
}

// TestReorderBoundedBuffer streams a real sweep and checks the
// properties the engine's memory claim rests on: the sniffer retains
// nothing, and the reorder buffer's high-water mark stays a tiny
// constant regardless of how many frames pass through.
func TestReorderBoundedBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	frames := 0
	ro := NewReorder(func(capture.Record) { frames++ })
	b, err := workload.DefaultSweep().Scale(0.2).Build()
	if err != nil {
		t.Fatal(err)
	}
	b.RunStream(ro.Add)
	ro.Flush()
	sn := b.Sniffers[0]

	if frames < 1000 {
		t.Fatalf("only %d frames streamed; sweep too small to be meaningful", frames)
	}
	if got := len(sn.Records()); got != 0 {
		t.Errorf("streaming sniffer materialized %d records", got)
	}
	if int64(sn.Captured) != int64(frames) {
		t.Errorf("sniffer captured %d but stream delivered %d", sn.Captured, frames)
	}
	if ro.MaxPending() > 128 {
		t.Errorf("reorder high-water mark %d; want a small constant (≤128) independent of the %d-frame trace",
			ro.MaxPending(), frames)
	}
}

// TestRegistry pins the built-in scenario set and the unknown-name
// error path.
func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{"day": true, "plenary": true, "sweep": true, "ladder": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing built-in scenarios: %v (have %v)", want, names)
	}
	if _, err := New("no-such-scenario", 0, 1); err == nil {
		t.Error("unknown scenario must error")
	}
	if _, err := (Matrix{Scenarios: []string{"nope"}}).Expand(); err == nil {
		t.Error("matrix with unknown scenario must error")
	}
}

// TestMatrixExpandDefaults checks the zero-value defaults (one run at
// default seed, full scale) and the expansion ordering.
func TestMatrixExpandDefaults(t *testing.T) {
	specs, err := Matrix{Scenarios: []string{"sweep"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Seed != 0 || specs[0].Scale != 1.0 {
		t.Fatalf("default expansion = %+v", specs)
	}
	specs, err = Matrix{
		Scenarios: []string{"sweep", "day"},
		Seeds:     []int64{1, 2},
		Scales:    []float64{0.5},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(specs))
	}
	order := []struct {
		name string
		seed int64
	}{{"sweep", 1}, {"sweep", 2}, {"day", 1}, {"day", 2}}
	for i, w := range order {
		if specs[i].Name != w.name || specs[i].Seed != w.seed {
			t.Errorf("spec %d = %s/%d, want %s/%d", i, specs[i].Name, specs[i].Seed, w.name, w.seed)
		}
	}
}
