package experiment

import (
	"testing"
)

// BenchmarkGridMatrix runs the short grid matrix CI archives into
// BENCH_4.json: both grid variants over two seeds, streamed through
// the dedup window on the engine's worker pool. The reported metrics
// are the aggregate counts the grid scenarios exist to produce —
// comparable across PRs like the Table 1 counts in BENCH_3.
func BenchmarkGridMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs, err := (Matrix{
			Scenarios: []string{"grid", "grid9"},
			Seeds:     []int64{1, 2},
			Scales:    []float64{0.5},
		}).Expand()
		if err != nil {
			b.Fatal(err)
		}
		results := collect(b, 0, specs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		aggs := Aggregate(results)
		for _, a := range aggs {
			prefix := a.Scenario + "_"
			b.ReportMetric(a.Field("frames").Mean, prefix+"frames")
			b.ReportMetric(a.Field("modal_util_pct").Mean, prefix+"modal_util_pct")
			b.ReportMetric(a.Field("throughput_mbps").Mean, prefix+"throughput_mbps")
			b.ReportMetric(a.Field("unrecorded_pct").Mean, prefix+"unrecorded_pct")
		}
	}
}

// BenchmarkGridReduce measures the reduce-as-you-go mode on the same
// matrix (the path very large matrices take).
func BenchmarkGridReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs, err := (Matrix{
			Scenarios: []string{"grid"},
			Seeds:     []int64{1, 2, 3},
			Scales:    []float64{0.5},
		}).Expand()
		if err != nil {
			b.Fatal(err)
		}
		eng := &Engine{}
		aggs, errs := reduce(b, eng, specs)
		for _, e := range errs {
			if e != nil {
				b.Fatal(e)
			}
		}
		b.ReportMetric(aggs[0].Field("frames").Mean, "frames")
		b.ReportMetric(float64(eng.PeakPending()), "peak_pending")
	}
}
