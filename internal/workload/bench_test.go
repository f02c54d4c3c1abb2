package workload

import (
	"testing"

	"wlan80211/internal/sim"
)

// The simulator benches run the paper's two sessions end to end
// (simulate + capture + merge) at a reduced scale, reporting allocs so
// the hot-path work (event queue, link matrix, transmission pooling,
// capture arena) stays measurable.

// reportEventQueueMetrics reports the per-frame event-queue costs the
// BENCH_N trajectory tracks: fired callbacks and heap mutations
// beyond the unavoidable pops (schedulings + cancellations + deferred
// re-keys) — the traffic the lazy DCF countdown cut.
func reportEventQueueMetrics(b *testing.B, net *sim.Network, frames int) {
	b.ReportMetric(float64(net.EventsProcessed())/float64(frames), "evq_events/frame")
	b.ReportMetric(float64(net.EventHeapOps())/float64(frames), "evq_heapops/frame")
}

func benchSession(b *testing.B, s Session) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := s.Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
	}
}

func BenchmarkSimDay(b *testing.B)     { benchSession(b, DaySession().Scale(0.15)) }
func BenchmarkSimPlenary(b *testing.B) { benchSession(b, PlenarySession().Scale(0.15)) }

// BenchmarkSimGrid runs the multi-cell grid end to end and reports the
// event-queue traffic behind each captured frame — the cost the lazy
// DCF countdown shrinks (dense co-channel cells make every contender
// overhear every transmission). evq_events/frame counts fired
// callbacks; evq_rearms/frame counts in-place re-arms of deferred
// countdowns, the lazy scheme's residual heap work.
func BenchmarkSimGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := DefaultGrid().Scale(0.5).Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
		b.ReportMetric(float64(built.Net.EventDeferrals())/float64(len(recs)), "evq_rearms/frame")
	}
}

// BenchmarkSimGrid256 is the campus-scale tier (BENCH_8): the full
// 16×16 grid, 1304 nodes, spatially-culled sparse links. Alongside
// the event-queue metrics it reports the stored link density —
// row_links/node ≈ the interference neighborhood k, the O(N·k) claim
// in a number (dense would be N = 1304).
func BenchmarkSimGrid256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		built, err := Grid256().Build()
		if err != nil {
			b.Fatal(err)
		}
		recs := built.Run()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
		reportEventQueueMetrics(b, built.Net, len(recs))
		rows, links, _ := built.Net.LinkStats()
		b.ReportMetric(float64(links)/float64(rows), "row_links/node")
	}
}
