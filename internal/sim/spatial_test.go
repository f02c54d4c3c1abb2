package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
)

// randomTwinNets builds two networks with an identical randomized
// multi-cell topology — one spatially culled, one forced dense — and
// returns them with the shared node layout applied to both.
func randomTwinNets(seed int64, nAPs, nStations int, extent float64) (sp, dn *Network) {
	mk := func(force bool) *Network {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Env.ShadowingSigmaDB = 0
		// Campus attenuation: ~60 m cull radius, so the randomized
		// extents below actually produce culled pairs.
		cfg.Env.PathLossExponent = 4.0
		cfg.ForceDenseLinks = force
		return New(cfg)
	}
	sp, dn = mk(false), mk(true)
	if !sp.sparse || dn.sparse {
		panic("twin nets: mode selection broken")
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	chans := []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11}
	pos := make([]Position, 0, nAPs+nStations)
	for i := 0; i < nAPs; i++ {
		pos = append(pos, Position{X: rng.Float64() * extent, Y: rng.Float64() * extent})
	}
	for i := 0; i < nStations; i++ {
		pos = append(pos, Position{X: rng.Float64() * extent, Y: rng.Float64() * extent})
	}
	for _, n := range []*Network{sp, dn} {
		var aps []*Node
		for i := 0; i < nAPs; i++ {
			aps = append(aps, n.AddAP(fmt.Sprintf("ap%d", i), pos[i], chans[i%len(chans)]))
		}
		for i := 0; i < nStations; i++ {
			ap := aps[i%len(aps)]
			n.AddStation(fmt.Sprintf("st%d", i), pos[nAPs+i], ap, rate.NewFixedFactory(phy.Rate11Mbps))
		}
	}
	return sp, dn
}

// auditRows brute-force checks every directed pair of both twins
// against the direct link computation: a link a row stores must equal
// linkFromTo at the row's power bit for bit, and a link the culled
// twin's row left out must be below both the carrier-sense and decode
// floors (so the full walk would skip it with zero effect). The twin
// that culls nothing must store every link. Returns the number of
// culled pairs so callers can assert the audit wasn't vacuous.
func auditRows(t *testing.T, sp, dn *Network) (culled int) {
	t.Helper()
	if len(sp.nodes) != len(dn.nodes) {
		t.Fatalf("twin drift: %d vs %d nodes", len(sp.nodes), len(dn.nodes))
	}
	for _, net := range []*Network{sp, dn} {
		for i, owner := range net.nodes {
			row := net.rowFor(owner)
			for j, o := range net.nodes {
				want := net.linkFromTo(row.power, owner, o)
				got, ok := row.linkTo(o)
				if !ok {
					if net == dn {
						t.Fatalf("pair %d→%d culled by the twin that culls nothing", i, j)
					}
					culled++
					if net.relevant(want) {
						t.Fatalf("pair %d→%d culled but relevant: %+v", i, j, want)
					}
					continue
				}
				if got != want {
					t.Fatalf("pair %d→%d stored link diverges: got %+v want %+v", i, j, got, want)
				}
			}
		}
	}
	return culled
}

// assertFreshGrid compares net's cell grid, shape and every bucket in
// order, against a from-scratch fill of the same network.
func assertFreshGrid(t *testing.T, net *Network) {
	t.Helper()
	g := net.spatialIndex(0)
	net.grid = nil
	fresh := net.spatialIndex(0)
	net.grid = g
	if g.gridShape != fresh.gridShape {
		t.Fatalf("grid shape %+v, a fresh fill has %+v", g.gridShape, fresh.gridShape)
	}
	for i := range fresh.buckets {
		if !slices.Equal(g.buckets[i], fresh.buckets[i]) {
			t.Fatalf("bucket %d holds %v, a fresh fill holds %v", i, bucketIDs(g.buckets[i]), bucketIDs(fresh.buckets[i]))
		}
	}
}

func bucketIDs(b []*Node) []int {
	ids := make([]int, len(b))
	for i, o := range b {
		ids[i] = o.ID
	}
	return ids
}

// TestSparseRowsMatchDense is the culled-pair audit of the headline
// bit-identity claim, on randomized topologies, through random node
// movement (teleports, same-cell steps that take the patch path, cell
// crossings, a bounding-box change), transmit-power raises (TPC-style,
// above the index's cell sizing), and mid-run node additions against
// pinned rows, with moves after them.
func TestSparseRowsMatchDense(t *testing.T) {
	var total RowCounters
	for seed := int64(1); seed <= 5; seed++ {
		sp, dn := randomTwinNets(seed, 6, 40, 400)
		if c := auditRows(t, sp, dn); c == 0 {
			t.Fatalf("seed %d: no culled pairs — audit is vacuous, shrink the extent", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		move := func(k int, p Position) {
			sp.MoveNode(sp.nodes[k], p)
			dn.MoveNode(dn.nodes[k], p)
		}
		// Random walks: same moves on both twins, re-audit each epoch.
		for step := 0; step < 10; step++ {
			k := rng.Intn(len(sp.nodes))
			move(k, Position{X: rng.Float64() * 400, Y: rng.Float64() * 400})
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
		}
		// Same-cell steps: neighbors' rows patch the one link. A queued
		// patch leaves the row as it was until its next use.
		for step := 0; step < 20; step++ {
			k := rng.Intn(len(sp.nodes))
			o := sp.nodes[k]
			g := sp.spatialIndex(0)
			cx, cy := g.cellOf(o.Pos)
			p := Position{X: o.Pos.X + rng.Float64() - 0.5, Y: o.Pos.Y + rng.Float64() - 0.5}
			if nx, ny := g.cellOf(p); nx != cx || ny != cy {
				continue
			}
			var watched *linkRow
			var before []link
			g.visitBlock(cx, cy, func(w *Node) {
				if w != o && watched == nil {
					watched = sp.links[w.ID]
					before = slices.Clone(watched.ls)
				}
			})
			move(k, p)
			if watched != nil && len(watched.patches) > 0 && !slices.Equal(watched.ls, before) {
				t.Fatal("a queued patch changed the row before its next use")
			}
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
		}
		// Cell crossings: a node jumps onto another node's spot,
		// usually in another cell, and back.
		for step := 0; step < 5; step++ {
			k, j := rng.Intn(len(sp.nodes)), rng.Intn(len(sp.nodes))
			home := sp.nodes[k].Pos
			move(k, sp.nodes[j].Pos)
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
			move(k, home)
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
		}
		// A move outside the bounding box changes the grid's shape: the
		// global bump, then local moves again on the new cells.
		global := sp.rows.GlobalMoves
		move(0, Position{X: 430, Y: -25})
		if sp.rows.GlobalMoves != global+1 {
			t.Fatal("a move growing the bounding box did not take the global path")
		}
		auditRows(t, sp, dn)
		assertFreshGrid(t, sp)
		move(1, Position{X: sp.nodes[1].Pos.X + 0.25, Y: sp.nodes[1].Pos.Y})
		auditRows(t, sp, dn)
		assertFreshGrid(t, sp)
		// A power raise beyond the grid's cell sizing must re-key the
		// index (cells sized for 15 dBm are too small for 20).
		sp.nodes[0].TxPower, dn.nodes[0].TxPower = 20, 20
		auditRows(t, sp, dn)
		// Mid-run adds append to rows pinned by in-flight transmissions
		// — but only in-range appends are stored; inert (below-both-
		// floors) newcomers are culled at the append, or row storage
		// would creep back toward O(N²). Build a row first so the
		// append path is what the audit sees for the new nodes: one
		// planted in the pinned row's neighborhood, inside the grid's
		// box (must be mirrored, by the local path) and one far outside
		// it (must be dropped, by the global path).
		prow := sp.rowFor(sp.nodes[1])
		dn.rowFor(dn.nodes[1])
		late := len(sp.nodes)
		g := sp.spatialIndex(0)
		inward := func(v, lo, span, step float64) float64 {
			if v-lo > span/2 {
				return v - step
			}
			return v + step
		}
		p1 := sp.nodes[1].Pos
		near := Position{X: inward(p1.X, g.minX, float64(g.cols)*g.cell, 4), Y: inward(p1.Y, g.minY, float64(g.rows)*g.cell, 3)}
		if !addTwin(t, sp, dn, "late", near) {
			t.Fatal("an add inside the box took the global path")
		}
		if n := len(idsFrom(prow, late)); n != 1 {
			t.Fatalf("mid-run add not mirrored into pinned sparse row: appended=%d", n)
		}
		far := Position{X: p1.X + 700, Y: p1.Y + 700}
		if addTwin(t, sp, dn, "late2", far) {
			t.Fatal("an add outside the box took the local path")
		}
		if n := len(idsFrom(prow, late)); n != 1 {
			t.Fatalf("inert mid-run add not culled from pinned sparse row: appended=%d", n)
		}
		auditRows(t, sp, dn)
		// A newcomer transmitting above the power the cells cover
		// changes the grid's shape: the global path, inside the box.
		g = sp.spatialIndex(0)
		sp.cfg.DefaultTxPowerDBm, dn.cfg.DefaultTxPowerDBm = g.power+3, g.power+3
		if addTwin(t, sp, dn, "loud", Position{X: near.X + 1, Y: near.Y}) {
			t.Fatal("an add above the grid's power took the local path")
		}
		sp.cfg.DefaultTxPowerDBm, dn.cfg.DefaultTxPowerDBm = 15, 15
		auditRows(t, sp, dn)
		// A row still at a power above the cells: the loud node and
		// node 0 step down, and a global move refills the grid at 15 dBm
		// while their rows keep the higher power (rows pinned by
		// in-flight transmissions are read as they are). Parked near its
		// cell's edge, the loud node's row reaches a newcomer two cells
		// over, outside its block: only the global path stores that.
		loud := len(sp.nodes) - 1
		for _, k := range []int{0, loud} {
			sp.nodes[k].TxPower, dn.nodes[k].TxPower = 15, 15
		}
		move(2, Position{X: -60, Y: 450})
		sp.rowFor(sp.nodes[1])
		g = sp.spatialIndex(0)
		move(loud, Position{X: g.minX + 0.9*g.cell, Y: g.minY + 0.5*g.cell})
		if g = sp.spatialIndex(0); g.power != 15 || sp.links[loud].power <= g.power {
			t.Fatalf("grid power %v, loud row at %v: the fixture no longer keeps a row above the cells", g.power, sp.links[loud].power)
		}
		if addTwin(t, sp, dn, "late3", Position{X: g.minX + 2.05*g.cell, Y: g.minY + 0.5*g.cell}) {
			t.Fatal("an add with a row above the grid's power took the local path")
		}
		if !bitSet(sp.links[loud].bits, len(sp.nodes)-1) {
			t.Fatal("the loud row does not reach the newcomer: the fixture no longer tests the row-power bound")
		}
		auditRows(t, sp, dn)
		// Moves after the adds: the newcomers and an old node step
		// within their cells and cross cells.
		for _, k := range []int{len(sp.nodes) - 2, len(sp.nodes) - 1, 2} {
			p := sp.nodes[k].Pos
			move(k, Position{X: p.X + 0.3, Y: p.Y - 0.2})
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
			move(k, Position{X: 400 - p.X, Y: 400 - p.Y})
			auditRows(t, sp, dn)
			assertFreshGrid(t, sp)
		}
		// A patch toward a node the row does not store falls back to a
		// full rebuild.
		fallbacks := sp.rows.Fallbacks
		prow = sp.rowFor(sp.nodes[1])
		for _, o := range sp.nodes {
			if _, ok := prow.linkTo(o); !ok {
				sp.queuePatch(prow, int32(o.ID))
				break
			}
		}
		auditRows(t, sp, dn)
		if sp.rows.Fallbacks != fallbacks+1 {
			t.Fatal("a patch toward an unstored node did not fall back to a rebuild")
		}
		rc := sp.RowCounters()
		total.Patches += rc.Patches
		total.LocalMoves += rc.LocalMoves
		total.GlobalMoves += rc.GlobalMoves
		total.LocalAdds += rc.LocalAdds
		total.GlobalAdds += rc.GlobalAdds
	}
	if total.Patches == 0 || total.LocalMoves == 0 || total.GlobalMoves == 0 || total.LocalAdds == 0 || total.GlobalAdds == 0 {
		t.Fatalf("a move or add path never ran: %+v", total)
	}
	t.Logf("patches %d, local moves %d, global moves %d, local adds %d, global adds %d",
		total.Patches, total.LocalMoves, total.GlobalMoves, total.LocalAdds, total.GlobalAdds)
}

// idsFrom returns the IDs row stores from id up: the nodes appended
// to it since id was the next ID, when the row was built before.
func idsFrom(row *linkRow, id int) []int32 {
	i, _ := slices.BinarySearch(row.ids, int32(id))
	return row.ids[i:]
}

// addTwin adds a station at p to both twins and checks every row
// against the O(N) reference loop. A row filled before the add keeps
// its links, computes its link toward the newcomer at the row's power
// and appends it iff it clears a floor; every such row of the twin
// that culls nothing appends it. A row never filled stays unfilled,
// and once rowFor has run it must equal a fresh buildSparseRow. It
// reports whether the add took the local path.
func addTwin(t *testing.T, sp, dn *Network, name string, p Position) (local bool) {
	t.Helper()
	type stored struct {
		ids    []int32
		ls     []link
		filled bool
	}
	snap := func(net *Network) []stored {
		want := make([]stored, len(net.links))
		for i, row := range net.links {
			want[i] = stored{slices.Clone(row.ids), slices.Clone(row.ls), row.gen > 0}
		}
		return want
	}
	spWant, dnWant := snap(sp), snap(dn)
	adds := sp.rows.LocalAdds
	sp.AddStation(name, p, sp.nodes[0], rate.NewFixedFactory(phy.Rate11Mbps))
	dn.AddStation(name, p, dn.nodes[0], rate.NewFixedFactory(phy.Rate11Mbps))
	for _, twin := range []struct {
		net  *Network
		want []stored
	}{{sp, spWant}, {dn, dnWant}} {
		net := twin.net
		node := net.nodes[len(net.nodes)-1]
		for i, w := range twin.want {
			row, owner := net.links[i], net.nodes[i]
			if !w.filled {
				if row.gen != 0 || len(row.ids) != 0 {
					t.Fatalf("add of %s: unfilled row %d was written (gen %d, %d links)", name, i, row.gen, len(row.ids))
				}
				net.rowFor(owner)
				fresh := &linkRow{power: owner.TxPower}
				net.buildSparseRow(fresh, owner)
				if !slices.Equal(row.ids, fresh.ids) || !slices.Equal(row.ls, fresh.ls) || !slices.Equal(row.bits, fresh.bits) {
					t.Fatalf("add of %s: first-filled row %d stores %v, a fresh build stores %v", name, i, row.ids, fresh.ids)
				}
				continue
			}
			if l := net.linkFromTo(row.power, owner, node); net.relevant(l) || !net.sparse {
				w.ids = append(w.ids, int32(node.ID))
				w.ls = append(w.ls, l)
			}
			if !slices.Equal(row.ids, w.ids) || !slices.Equal(row.ls, w.ls) {
				t.Fatalf("add of %s: row %d stores %v, the O(N) loop stores %v", name, i, row.ids, w.ids)
			}
		}
	}
	return sp.rows.LocalAdds == adds+1
}

// linearLinkTo is the reference row lookup: a scan of the stored links.
func linearLinkTo(r *linkRow, id int) (link, bool) {
	for i, sid := range r.ids {
		if int(sid) == id {
			return r.ls[i], true
		}
	}
	return link{}, false
}

// assertRowBitmaps checks every sparse row as it stands, without
// bringing it current: a bit is set exactly for the IDs the row stores,
// and linkTo answers every node as the linear scan does.
func assertRowBitmaps(t *testing.T, net *Network, step string) {
	t.Helper()
	for i, row := range net.links {
		for id := 0; id < max(len(net.nodes), 64*len(row.bits)); id++ {
			want, stored := linearLinkTo(row, id)
			if bitSet(row.bits, id) != stored {
				t.Fatalf("%s: row %d bit for node %d is %v, stored %v", step, i, id, bitSet(row.bits, id), stored)
			}
			if id >= len(net.nodes) {
				continue
			}
			if got, ok := row.linkTo(net.nodes[id]); ok != stored || got != want {
				t.Fatalf("%s: row %d linkTo(%d) = %+v, %v; linear scan %+v, %v", step, i, id, got, ok, want, stored)
			}
		}
	}
}

// TestRowBitmapMatchesMembership drives a sparse network through every
// way a row's membership changes — full builds, move patches, patch
// fallbacks, local and global moves, mid-run adds on both paths, and
// transmit-power raises and drops — and checks every row's bitmap and
// lookup after each step.
func TestRowBitmapMatchesMembership(t *testing.T) {
	var total RowCounters
	for seed := int64(1); seed <= 3; seed++ {
		net, _ := randomTwinNets(seed, 5, 30, 300)
		rng := rand.New(rand.NewSource(seed * 101))
		assertRowBitmaps(t, net, "build")
		built := net.RowCounters()
		ap := net.nodes[0]
		for step := 0; step < 300; step++ {
			k := rng.Intn(len(net.nodes))
			o := net.nodes[k]
			var what string
			switch op := rng.Intn(8); op {
			case 0:
				what = "row use"
				net.rowFor(o)
			case 1:
				what = "step"
				net.MoveNode(o, Position{X: o.Pos.X + rng.Float64() - 0.5, Y: o.Pos.Y + rng.Float64() - 0.5})
			case 2:
				what = "jump"
				net.MoveNode(o, Position{X: rng.Float64() * 300, Y: rng.Float64() * 300})
			case 3:
				what = "jump out"
				net.MoveNode(o, Position{X: rng.Float64()*400 - 50, Y: rng.Float64()*400 - 50})
			case 4:
				what = "add"
				p := Position{X: rng.Float64()*360 - 30, Y: rng.Float64()*360 - 30}
				net.AddStation(fmt.Sprintf("add%d", step), p, ap, rate.NewFixedFactory(phy.Rate11Mbps))
			case 5:
				what = "power"
				o.TxPower = 12 + rng.Float64()*8
				if rng.Intn(2) == 0 {
					net.rowFor(o)
				}
			case 6:
				what = "fallback"
				row := net.rowFor(o)
				for _, w := range net.nodes {
					if !bitSet(row.bits, w.ID) {
						net.queuePatch(row, int32(w.ID))
						break
					}
				}
				net.rowFor(o)
			default:
				what = "all rows"
				net.LinkStats()
			}
			assertRowBitmaps(t, net, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
		// Count the steps only, not the build's adds.
		rc := net.RowCounters()
		total.Patches += rc.Patches
		total.Fallbacks += rc.Fallbacks
		total.LocalMoves += rc.LocalMoves
		total.GlobalMoves += rc.GlobalMoves
		total.LocalAdds += rc.LocalAdds - built.LocalAdds
		total.GlobalAdds += rc.GlobalAdds - built.GlobalAdds
	}
	if total.Patches == 0 || total.Fallbacks == 0 || total.LocalMoves == 0 || total.GlobalMoves == 0 ||
		total.LocalAdds == 0 || total.GlobalAdds == 0 {
		t.Fatalf("a maintenance path never ran: %+v", total)
	}
	t.Logf("%+v", total)
}

// TestUnculledRowsStoreEveryNode drives a shadowed network — the one
// that culls nothing — through mid-run adds (one outside every node's
// bounding box), steps, jumps and a move far outside the box, a TPC
// power change and an AP channel switch, with traffic on the air in
// between. After each step every row, brought current, stores every
// node at its own index with the link computed directly, and every
// move and add went the local way: one unbounded cell never changes
// shape.
func TestUnculledRowsStoreEveryNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Env.ShadowingSigmaDB = 6
	net := New(cfg)
	if net.sparse {
		t.Fatal("a shadowed network culls")
	}
	audit := func(step string) {
		t.Helper()
		for _, owner := range net.nodes {
			row := net.rowFor(owner)
			if len(row.ids) != len(net.nodes) || len(row.ls) != len(net.nodes) {
				t.Fatalf("%s: row %d stores %d links for %d nodes", step, owner.ID, len(row.ids), len(net.nodes))
			}
			for i, o := range net.nodes {
				if row.ids[i] != int32(i) {
					t.Fatalf("%s: row %d holds node %d at index %d", step, owner.ID, row.ids[i], i)
				}
				if want := net.linkFromTo(row.power, owner, o); row.ls[i] != want {
					t.Fatalf("%s: row %d link to %d is %+v, want %+v", step, owner.ID, i, row.ls[i], want)
				}
			}
		}
	}
	chans := []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11}
	var aps []*Node
	for i, ch := range chans {
		aps = append(aps, net.AddAP(fmt.Sprintf("ap%d", i), Position{X: 20 + 30*float64(i), Y: 20}, ch))
	}
	mix := DefaultMix()
	add := func(name string, p Position) *Node {
		st := net.AddStation(name, p, aps[len(net.nodes)%len(aps)], rate.NewARFFactory())
		net.StartTraffic(st, net.PickProfile(mix), 1)
		return st
	}
	for i := 0; i < 15; i++ {
		add(fmt.Sprintf("st%d", i), Position{X: 10 + 5*float64(i), Y: 15 + float64(i%4)*3})
	}
	audit("build")
	net.RunFor(phy.MicrosPerSecond)
	add("late", Position{X: 50, Y: 25})
	add("outside", Position{X: -2000, Y: -1500}) // below both floors of every other node
	audit("adds")
	net.RunFor(phy.MicrosPerSecond / 2)

	moves := 0
	move := func(o *Node, p Position) {
		net.MoveNode(o, p)
		moves++
	}
	mover := net.nodes[5]
	for i := 0; i < 5; i++ {
		move(mover, Position{X: mover.Pos.X + 0.7, Y: mover.Pos.Y - 0.4})
		net.RunFor(phy.MicrosPerSecond / 10)
	}
	move(net.nodes[8], net.nodes[12].Pos)
	move(aps[1], Position{X: 400, Y: -250})
	audit("moves")
	net.RunFor(phy.MicrosPerSecond / 2)

	if net.ApplyTPC(20) == 0 {
		t.Fatal("TPC changed no station's power: the step is vacuous")
	}
	audit("tpc")
	net.RunFor(phy.MicrosPerSecond / 2)
	net.NewController(aps).switchAPChannel(aps[0], phy.Channel6)
	if net.Stats.ChannelSwitch != 1 {
		t.Fatal("the AP did not switch channels")
	}
	net.RunFor(phy.MicrosPerSecond / 2)
	audit("channel switch")

	if rc := net.RowCounters(); rc.LocalMoves != uint64(moves) || rc.GlobalMoves != 0 ||
		rc.GlobalAdds != 1 || rc.LocalAdds != uint64(len(net.nodes)-1) || net.posEpoch != 0 {
		t.Fatalf("%d moves, %d nodes: %+v, position epoch %d", moves, len(net.nodes), rc, net.posEpoch)
	}
	if net.Stats.DataAcked == 0 {
		t.Fatal("no traffic was delivered: the rows were never used on the air")
	}
}

// TestMovePatchesStayBounded pins the pending-patch rule for rows that
// are not used between moves: repeat moves of one node queue it once,
// and a row whose patches would outnumber its stored links is marked
// for a full rebuild instead of growing.
func TestMovePatchesStayBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	ap := net.AddAP("ap", Position{X: 10, Y: 10}, phy.Channel1)
	var sts []*Node
	for i := 0; i < 4; i++ {
		sts = append(sts, net.AddStation(fmt.Sprintf("st%d", i), Position{X: 12 + float64(i), Y: 10}, ap, rate.NewFixedFactory(phy.Rate11Mbps)))
	}
	row := net.rowFor(ap)
	for i := 0; i < 6; i++ {
		net.MoveNode(sts[0], Position{X: 12, Y: 10.5 + float64(i%2)*0.5})
	}
	if net.rows.LocalMoves != 6 {
		t.Fatalf("moves took the global path: %+v", net.rows)
	}
	if !slices.Equal(row.patches, []int32{int32(sts[0].ID)}) {
		t.Fatalf("repeat moves of one node queued %v, want it once", row.patches)
	}
	stored := len(row.ids)
	for id := 0; len(row.patches) < stored; id++ {
		net.queuePatch(row, int32(100+id))
	}
	if row.stale {
		t.Fatal("row marked stale before its patches reached its stored link count")
	}
	net.queuePatch(row, 99)
	if !row.stale || len(row.patches) != 0 {
		t.Fatalf("patches past the stored link count: stale=%v patches=%d", row.stale, len(row.patches))
	}
	full := net.rows.FullBuilds
	net.rowFor(ap)
	if row.stale || net.rows.FullBuilds != full+1 {
		t.Fatal("a stale row did not rebuild on next use")
	}
}

// TestWaypointBucketMembership walks a node across bucket boundaries
// and checks the index keeps it in exactly one bucket — the correct
// one — at every step, and that every bucket after each in-place move
// matches a from-scratch fill.
func TestWaypointBucketMembership(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	ap := net.AddAP("ap", Position{X: 0, Y: 0}, phy.Channel1)
	// Far corner spreads the bounding box over many cells.
	net.AddAP("corner", Position{X: 500, Y: 500}, phy.Channel6)
	mob := net.AddStation("mob", Position{X: 0, Y: 0}, ap, rate.NewFixedFactory(phy.Rate11Mbps))
	net.StartWaypoints(mob, 10, phy.MicrosPerSecond/10,
		Position{X: 490, Y: 10}, Position{X: 250, Y: 480}, Position{X: 10, Y: 10})
	for step := 0; step < 200; step++ {
		net.RunFor(phy.MicrosPerSecond / 10)
		g := net.spatialIndex(0)
		if g.epoch != net.posEpoch {
			t.Fatalf("step %d: index stale after rebuild (epoch %d vs %d)", step, g.epoch, net.posEpoch)
		}
		found := 0
		for ci, b := range g.buckets {
			for _, o := range b {
				if o == mob {
					found++
					cx, cy := g.cellOf(mob.Pos)
					if ci != cy*g.cols+cx {
						t.Fatalf("step %d: node at %+v bucketed in cell %d, want %d", step, mob.Pos, ci, cy*g.cols+cx)
					}
				}
			}
		}
		if found != 1 {
			t.Fatalf("step %d: node appears in %d buckets, want exactly 1", step, found)
		}
		assertFreshGrid(t, net)
	}
	if net.rows.LocalMoves == 0 {
		t.Fatalf("no move was applied in place: %+v", net.rows)
	}
}

// obsHash folds the over-the-air facts of every observation into one
// order-sensitive FNV fold — two runs with equal hashes produced the
// same frames at the same times with the same overlap structure.
type obsHash struct{ h uint64 }

func (o *obsHash) fold(v uint64) {
	if o.h == 0 {
		o.h = 14695981039346656037
	}
	o.h ^= v
	o.h *= 1099511628211
}

func (o *obsHash) ObserveTransmission(obs TxObservation) {
	o.fold(uint64(obs.Time))
	o.fold(uint64(obs.End))
	o.fold(uint64(obs.Channel))
	o.fold(uint64(obs.Rate))
	o.fold(uint64(obs.FromID))
	o.fold(uint64(obs.WireLen))
	o.fold(uint64(len(obs.Overlapped)))
	for _, b := range obs.Frame {
		o.fold(uint64(b))
	}
}

// TestSpatialTraceMatchesDense runs the same multi-cell scenario —
// traffic, mobility, index-served roaming, beacons, co-channel
// interference — spatially culled and forced dense, and requires
// bit-identical observation streams and ground-truth counters.
func TestSpatialTraceMatchesDense(t *testing.T) {
	run := func(force bool) (uint64, NetStats) {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.Env.ShadowingSigmaDB = 0
		cfg.Env.PathLossExponent = 4.0 // ~60 m cull radius: real culling
		cfg.ForceDenseLinks = force
		net := New(cfg)
		chans := []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11, phy.Channel1}
		var aps []*Node
		for i := 0; i < 4; i++ {
			p := Position{X: float64(i%2)*60 + 15, Y: float64(i/2)*60 + 15}
			aps = append(aps, net.AddAP(fmt.Sprintf("ap%d", i), p, chans[i]))
		}
		mix := DefaultMix()
		for i := 0; i < 12; i++ {
			ap := aps[i%len(aps)]
			p := Position{X: ap.Pos.X + float64(i%5)*4 - 8, Y: ap.Pos.Y + float64(i/5)*5 - 5}
			st := net.AddStation(fmt.Sprintf("st%d", i), p, ap, rate.NewARFFactory())
			net.StartTraffic(st, net.PickProfile(mix), 1.5)
		}
		mob := net.AddStation("mob", aps[0].Pos, aps[0], rate.NewARFFactory())
		net.StartTraffic(mob, net.PickProfile(mix), 1.5)
		net.StartWaypoints(mob, 8, phy.MicrosPerSecond/2,
			Position{X: 75, Y: 15}, Position{X: 75, Y: 75}, Position{X: 15, Y: 15})
		var roam func()
		roam = func() {
			if best := net.NearestAP(mob.Pos); best != nil && best != mob.AP {
				net.Reassociate(mob, best)
			}
			net.Schedule(net.Now()+phy.MicrosPerSecond, roam)
		}
		net.Schedule(phy.MicrosPerSecond, roam)
		var h obsHash
		net.AddTap(&h)
		net.RunFor(6 * phy.MicrosPerSecond)
		return h.h, net.Stats
	}
	spH, spStats := run(false)
	dnH, dnStats := run(true)
	if spH == 0 {
		t.Fatal("no observations — scenario is vacuous")
	}
	if spH != dnH {
		t.Fatalf("spatially culled trace diverges from dense: %#x vs %#x", spH, dnH)
	}
	if spStats != dnStats {
		t.Fatalf("stats diverge:\nsparse: %+v\ndense:  %+v", spStats, dnStats)
	}
}

// linearNearestAP is the reference roam lookup: the geometrically
// nearest AP to pos by a scan of aps, ties broken by slice order (the
// first wins), nil for an empty slice.
func linearNearestAP(aps []*Node, pos Position) *Node {
	var best *Node
	bestD := math.Inf(1)
	for _, ap := range aps {
		if d := ap.Pos.Distance(pos); d < bestD {
			best, bestD = ap, d
		}
	}
	return best
}

// TestNetworkNearestAPMatchesLinear compares the expanding-ring index
// search against the linear scan on randomized layouts and on exact
// equidistant ties (the linear scan's first-wins tie is creation
// order, which the ring search must reproduce).
func TestNetworkNearestAPMatchesLinear(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Env.ShadowingSigmaDB = 0
		net := New(cfg)
		rng := rand.New(rand.NewSource(seed * 31))
		var aps []*Node
		for i := 0; i < 30; i++ {
			p := Position{X: rng.Float64() * 800, Y: rng.Float64() * 800}
			aps = append(aps, net.AddAP(fmt.Sprintf("ap%d", i), p, phy.Channel1))
		}
		for q := 0; q < 200; q++ {
			// Sprinkle queries beyond the bounding box too.
			p := Position{X: rng.Float64()*1000 - 100, Y: rng.Float64()*1000 - 100}
			want := linearNearestAP(aps, p)
			if got := net.NearestAP(p); got != want {
				t.Fatalf("seed %d query %+v: index found %v, linear scan %v", seed, p, got, want)
			}
		}
	}
	// Exact tie: two APs mirrored around the query point.
	cfg := DefaultConfig()
	cfg.Env.ShadowingSigmaDB = 0
	net := New(cfg)
	a := net.AddAP("a", Position{X: 0, Y: 50}, phy.Channel1)
	b := net.AddAP("b", Position{X: 100, Y: 50}, phy.Channel6)
	aps := []*Node{a, b}
	q := Position{X: 50, Y: 50}
	if linearNearestAP(aps, q) != a {
		t.Fatal("linear tie-break changed — update the index tie-break to match")
	}
	if got := net.NearestAP(q); got != a {
		t.Fatalf("index tie-break picked %v, linear scan picks first-created", got)
	}
	if net.NearestAP(Position{X: 99, Y: 50}) != b {
		t.Fatal("index missed the strictly nearer AP")
	}
	empty := New(cfg)
	if empty.NearestAP(q) != nil {
		t.Fatal("empty network must return nil")
	}
}
