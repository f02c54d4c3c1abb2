package workload

import (
	"runtime"
	"testing"

	"wlan80211/internal/phy"
)

// TestGrid256SparseRowLengths pins the O(N·k) link-matrix claim on the
// campus grid: every row must hold only its interference neighborhood,
// a small fraction of the node count (a dense matrix stores N links in
// every row).
func TestGrid256SparseRowLengths(t *testing.T) {
	b, err := Grid256().Build()
	if err != nil {
		t.Fatal(err)
	}
	rows, links, maxRow := b.Net.LinkStats()
	if rows < 1300 {
		t.Fatalf("campus grid shrank: %d nodes, want ≥1300", rows)
	}
	if maxRow >= rows/4 {
		t.Fatalf("rows are not sparse: longest row %d of %d nodes", maxRow, rows)
	}
	avg := float64(links) / float64(rows)
	if avg >= float64(rows)/8 {
		t.Fatalf("average row %.1f links is not ≪ %d nodes", avg, rows)
	}
	t.Logf("N=%d: avg row %.1f links, max %d (dense would be %d per row)", rows, avg, maxRow, rows)
}

// TestGrid256AddsStayLocal guards block-local node adds on the campus:
// building grid256 must extend only the rows around each newcomer for
// all but the adds that grow the grid's box. Goldens cannot catch a
// regression here, because the global path stores the same links, only
// in O(N) per add. It also guards build-at-first-use: nothing reads a
// link row before the run, so Build fills, patches and extends none
// (no link is computed), and allocates under 4 MB (9.5 MB when every
// add filled its node's row).
func TestGrid256AddsStayLocal(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := Grid256().Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rc := b.Net.RowCounters()
	nodes := uint64(len(b.Net.Nodes()))
	if rc.LocalAdds+rc.GlobalAdds != nodes || rc.LocalAdds < 1200 {
		t.Fatalf("%d of %d adds local, %d global; want ≥1200 local", rc.LocalAdds, nodes, rc.GlobalAdds)
	}
	if rc.FullBuilds != 0 || rc.Patches != 0 || rc.Extends != 0 {
		t.Fatalf("Build computed links: %+v", rc)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 4<<20 {
		t.Fatalf("Build allocated %.1f MB, want ≤ 4 MB", float64(alloc)/(1<<20))
	}
	t.Logf("%d nodes: %d local adds, %d global; Build allocated %.2f MB", nodes, rc.LocalAdds, rc.GlobalAdds, float64(alloc)/(1<<20))
}

// TestGrid256StationCount pins the scenario's headline population:
// 16×16 APs and 1000+ stations.
func TestGrid256StationCount(t *testing.T) {
	g := Grid256()
	if g.Cells() != 256 {
		t.Fatalf("cells = %d, want 256", g.Cells())
	}
	stations := g.Cells()*g.StationsPerCell + g.MobileStations
	if stations < 1000 {
		t.Fatalf("stations = %d, want ≥1000", stations)
	}
}

// TestGrid256MovesStayLocal guards move-local row invalidation on the
// campus: every mobile step must invalidate only the rows around the
// mobile, never through the global position-epoch bump, and every
// queued patch must find its stored link. Goldens cannot catch a
// regression here, because the global bump yields the same traces,
// only slower: it rebuilds ~15k rows in this run, where local moves
// rebuild ~1.7k (the 780 first builds included).
func TestGrid256MovesStayLocal(t *testing.T) {
	b, err := Grid256().Scale(0.5).Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Run()
	rc := b.Net.RowCounters()
	// Each mobile steps every half second, from 0.5 s to the end.
	steps := uint64(len(b.Mobiles)) * uint64(b.Duration/phy.MicrosPerSecond) * 2
	if rc.LocalMoves != steps || rc.GlobalMoves != 0 {
		t.Fatalf("%d of %d mobile steps local, %d global", rc.LocalMoves, steps, rc.GlobalMoves)
	}
	if rc.Patches == 0 || rc.Fallbacks != 0 {
		t.Fatalf("patch path: %d patches, %d fallbacks to a rebuild", rc.Patches, rc.Fallbacks)
	}
	nodes := uint64(len(b.Net.Nodes()))
	if rc.FullBuilds*40 > steps*nodes {
		t.Fatalf("%d full row builds for %d moves of %d nodes", rc.FullBuilds, steps, nodes)
	}
	t.Logf("%d moves, %d nodes: %+v", steps, nodes, rc)
}
