package sim

import (
	"math"
	"slices"

	"wlan80211/internal/phy"
)

// This file holds the one link-row layout and the spatial interference
// culling that keeps it small: a uniform cell grid over node positions,
// and link rows that store links only to the nodes of the owner's 3×3
// cell block, cutting link memory from O(N²) to O(N·k) and
// per-transmission medium work from O(N) to O(neighbors).
//
// Movement invalidates locally. While the grid's shape (origin, cell
// edge, extent) stays what a fresh fill would compute, a move re-buckets
// the node in place and touches only the rows whose 3×3 neighborhood
// holds it: a step within one cell queues a one-link patch on each,
// a cell crossing rebuilds the rows around both cells (moveLocal).
// Anything else takes the global position-epoch bump: a move that
// changes the shape (the bounding box, or the strongest transmit
// power), and a move before the grid is refilled after a mid-run add.
// A refill that changes the shape (a power raise past the cell sizing,
// an add outside the box) bumps the epoch too, so every row still
// current was built on the current cells.
//
// Adds invalidate nothing, and extend locally the same way. An add
// inside the box, at a power the cells cover, onto a grid filled at the
// current epoch, appends the newcomer to its bucket and extends only
// the rows of the nodes in its 3×3 block (addLocal); any other add
// computes the link from every row and refills the grid. Either way a
// row never filled is skipped: rows are filled at their first use
// (rowFor), not at the add (extendRow). Each row keeps a membership bitmap of the IDs it stores, so a culled pair
// costs one bit test, not a search.
//
// Culling engages when the radio is fully deterministic
// (Env.ShadowingSigmaDB == 0 and Config.ForceDenseLinks unset). With
// shadowing enabled, delivery draws one normal variate per attached
// receiver before any range check, so culling the candidate set would
// shift the RNG stream. Those networks cull nothing: the cull radius
// is infinite, the grid is one cell that holds every node wherever it
// stands, and every row stores every node at its own index — the same
// rows and the same moves and adds, with nothing left out. At σ = 0 a
// node beyond the cull radius is below both the carrier-sense and the
// decode floor, so the medium's full walk would skip it with zero side
// effects and zero RNG draws; culling it is therefore exact
// (spatial_test.go audits the rows against the direct link computation
// and the traces against a ForceDenseLinks twin).

// spatialMargin pads the cull radius so floating-point rounding in the
// log/pow round-trip can never re-admit a culled node: beyond
// radius×margin the received power is decisively below both floors.
const spatialMargin = 1.001

// cullRadius returns the distance beyond which a transmitter at power
// dBm is below both the carrier-sense threshold and the noise floor at
// every receiver under the deterministic path loss; +Inf when the
// network culls nothing.
func (n *Network) cullRadius(power float64) float64 {
	if !n.sparse {
		return math.Inf(1)
	}
	env := &n.cfg.Env
	floor := env.NoiseFloorDBm
	if env.CarrierSenseDBm < floor {
		floor = env.CarrierSenseDBm
	}
	d := math.Pow(10, (power-env.RefLossDB-floor)/(10*env.PathLossExponent))
	if d < 1 {
		d = 1 // PathLossDB clamps distances below 1 m
	}
	return d
}

// cellGrid is a uniform bucket grid over node positions. The cell edge
// is at least the cull radius of the strongest transmitter, so a
// node's entire interference neighborhood is contained in the 3×3
// block of cells around its own.
type cellGrid struct {
	gridShape
	epoch  uint64 // posEpoch the buckets were filled at
	nnodes int    // node count at fill time (adds don't bump the epoch)
	// buckets is row-major; each bucket lists its nodes in ID
	// (creation) order, so merged neighborhoods sort cheaply.
	buckets [][]*Node
	builds  uint64 // lifetime rebuild count (0: never built)
}

// gridShape is the geometry of a grid fill: everything besides the
// bucket contents.
type gridShape struct {
	power float64 // max transmit power the cell size covers
	cell  float64 // cell edge length in meters
	minX  float64
	minY  float64
	cols  int
	rows  int
}

// shapeFor returns the shape a fill covering power would have for the
// current node positions and transmit powers. With an infinite cull
// radius it is one unbounded cell, whatever the positions and powers,
// so no move or add changes it.
func (n *Network) shapeFor(power float64) gridShape {
	if inf := n.cullRadius(power); math.IsInf(inf, 1) {
		return gridShape{power: inf, cell: inf, cols: 1, rows: 1}
	}
	maxP := power
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, o := range n.nodes {
		if o.TxPower > maxP {
			maxP = o.TxPower
		}
		minX, minY = math.Min(minX, o.Pos.X), math.Min(minY, o.Pos.Y)
		maxX, maxY = math.Max(maxX, o.Pos.X), math.Max(maxY, o.Pos.Y)
	}
	if len(n.nodes) == 0 {
		minX, minY, maxX, maxY = 0, 0, 0, 0
	}
	s := gridShape{power: maxP, cell: n.cullRadius(maxP) * spatialMargin, minX: minX, minY: minY}
	s.cols = int((maxX-minX)/s.cell) + 1
	s.rows = int((maxY-minY)/s.cell) + 1
	return s
}

// spatialIndex returns the cell grid, refilling it if the position
// epoch moved or a node was added since the last fill, or if power
// exceeds what the current cell size covers (TPC or tests raising
// TxPower mid-run). A refill that changes the grid's shape bumps the
// position epoch: moveLocal patches only the rows around a moved node
// on the current cells, so a row built on other cells must not stay
// current.
func (n *Network) spatialIndex(power float64) *cellGrid {
	g := n.grid
	if g == nil {
		g = &cellGrid{}
		n.grid = g
	}
	if g.builds > 0 && g.epoch == n.posEpoch && g.nnodes == len(n.nodes) && power <= g.power {
		return g
	}
	shape := n.shapeFor(power)
	if g.builds > 0 && shape != g.gridShape {
		n.posEpoch++
	}
	g.gridShape = shape
	need := g.cols * g.rows
	if cap(g.buckets) < need {
		g.buckets = make([][]*Node, need)
	}
	g.buckets = g.buckets[:need]
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	for _, o := range n.nodes { // ID order keeps each bucket ID-sorted
		cx, cy := g.cellOf(o.Pos)
		g.buckets[cy*g.cols+cx] = append(g.buckets[cy*g.cols+cx], o)
	}
	g.epoch = n.posEpoch
	g.nnodes = len(n.nodes)
	g.builds++
	return g
}

// moveLocal applies node's move from old to the grid and the link rows
// in place, or reports false when the move needs the global
// position-epoch bump: a grid that is not filled at the current epoch
// and node count, or a move that changes the shape a fresh fill would
// have. Otherwise only rows whose 3×3 neighborhood holds the node can
// store a link toward it, and those are the rows of the nodes in the
// node's own neighborhood. Its own row rebuilds.
// A step within one cell leaves every neighborhood's membership as it
// was, so each of those rows queues a patch of the one link; a cell
// crossing changes membership, so the rows around both cells rebuild.
func (n *Network) moveLocal(node *Node, old Position) bool {
	g := n.grid
	if g == nil || g.epoch != n.posEpoch || g.nnodes != len(n.nodes) ||
		n.shapeFor(math.Inf(-1)) != g.gridShape {
		return false
	}
	ox, oy := g.cellOf(old)
	cx, cy := g.cellOf(node.Pos)
	n.links[node.ID].stale = true
	if ox == cx && oy == cy {
		id := int32(node.ID)
		g.visitBlock(cx, cy, func(o *Node) {
			if o != node {
				n.queuePatch(n.links[o.ID], id)
			}
		})
	} else {
		g.rebucket(node, ox, oy, cx, cy)
		stale := func(o *Node) { n.links[o.ID].stale = true }
		g.visitBlock(ox, oy, stale)
		g.visitBlock(cx, cy, stale)
	}
	return true
}

// addLocal extends the link rows toward node, just appended to
// n.nodes, from the cell grid, and files node in its bucket; or it
// reports false when the add needs every row: a grid not filled at the
// current epoch and the previous node count, an add that would change
// the grid's shape (a position outside the box, a transmit power above
// the cell sizing), or a row computed at a power above the cell sizing
// (maxRowPower). Otherwise a node outside node's 3×3 block lies more
// than a cell edge away, beyond its row's cull radius, so the link
// clears neither floor and the full loop would store nothing for it.
func (n *Network) addLocal(node *Node) bool {
	g := n.grid
	if g == nil || g.epoch != n.posEpoch || g.nnodes != len(n.nodes)-1 ||
		node.TxPower > g.power || n.maxRowPower > g.power || !g.covers(node.Pos) {
		return false
	}
	cx, cy := g.cellOf(node.Pos)
	g.visitBlock(cx, cy, func(o *Node) { n.extendRow(n.links[o.ID], o, node) })
	// node has the highest ID, so appending keeps the bucket ID-sorted.
	g.buckets[cy*g.cols+cx] = append(g.buckets[cy*g.cols+cx], node)
	g.nnodes++
	return true
}

// covers reports whether a fill that includes p keeps the grid's origin
// and extent: p lies in [minX, minX+cols·cell) and likewise in Y, by
// shapeFor's arithmetic (int(v) < cols ⇔ v < cols for v ≥ 0). One
// unbounded cell covers every position.
func (g *cellGrid) covers(p Position) bool {
	return math.IsInf(g.cell, 1) || p.X >= g.minX && p.Y >= g.minY &&
		(p.X-g.minX)/g.cell < float64(g.cols) && (p.Y-g.minY)/g.cell < float64(g.rows)
}

// rebucket moves node from cell (ox, oy) to cell (cx, cy), keeping
// both buckets in ID order.
func (g *cellGrid) rebucket(node *Node, ox, oy, cx, cy int) {
	from := g.buckets[oy*g.cols+ox]
	i := slices.Index(from, node)
	g.buckets[oy*g.cols+ox] = slices.Delete(from, i, i+1)
	to := g.buckets[cy*g.cols+cx]
	j, _ := slices.BinarySearchFunc(to, node.ID, func(o *Node, id int) int { return o.ID - id })
	g.buckets[cy*g.cols+cx] = slices.Insert(to, j, node)
}

// queuePatch records that node id moved within its cell, so row
// recomputes its stored link toward id on next use (rowFor). Rows
// already due for a full rebuild need nothing. Repeat moves of one
// node queue it once, and a row whose patches would outnumber its
// stored links rebuilds instead, so a row that never transmits holds
// at most one patch per stored link however long the run.
func (n *Network) queuePatch(row *linkRow, id int32) {
	if row.stale || row.epoch != n.posEpoch || slices.Contains(row.patches, id) {
		return
	}
	if len(row.patches) >= len(row.ids) {
		row.stale = true
		row.patches = row.patches[:0]
		return
	}
	row.patches = append(row.patches, id)
}

// rowCurrent reports whether every link row stores is what linkFromTo
// would compute at today's positions and the row's power: no global
// invalidation, no move of its owner (stale) and no move of a node it
// stores (patches) since it was filled. A pair the row culled is
// recomputed from the same positions, so a current row's every term is
// culledMW(row.power, |ownerPos − o.Pos|) whether stored or not.
func (n *Network) rowCurrent(row *linkRow) bool {
	return row.epoch == n.posEpoch && !row.stale && len(row.patches) == 0
}

// patchRow recomputes row's stored links toward its queued patches —
// the same linkFromTo call a rebuild makes, so the values match one.
// A patched node the row does not store (a culled mid-run add) falls
// back to the full rebuild.
func (n *Network) patchRow(row *linkRow, node *Node) {
	for _, id := range row.patches {
		l := n.linkFromTo(row.power, node, n.nodes[id])
		if i, ok := slices.BinarySearch(row.ids, id); ok {
			row.ls[i] = l
		} else {
			n.rows.Fallbacks++
			n.buildSparseRow(row, node)
			return
		}
		n.rows.Patches++
	}
	row.patches = row.patches[:0]
	row.gen++ // invalidate caches keyed on this row's content
}

// cellOf maps a position inside the index's bounding box to bucket
// coordinates, clamped defensively against float edge rounding.
func (g *cellGrid) cellOf(p Position) (cx, cy int) {
	cx = int((p.X - g.minX) / g.cell)
	cy = int((p.Y - g.minY) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

// cellAt maps an arbitrary position — possibly outside the bounding
// box — to unclamped cell coordinates for ring searches.
func (g *cellGrid) cellAt(p Position) (cx, cy int) {
	return int(math.Floor((p.X - g.minX) / g.cell)), int(math.Floor((p.Y - g.minY) / g.cell))
}

// visitCell calls fn for every node bucketed in cell (cx, cy); cells
// outside the grid are empty.
func (g *cellGrid) visitCell(cx, cy int, fn func(*Node)) {
	if cx < 0 || cx >= g.cols || cy < 0 || cy >= g.rows {
		return
	}
	for _, o := range g.buckets[cy*g.cols+cx] {
		fn(o)
	}
}

// visitBlock calls fn for every node bucketed in the 3×3 block of
// cells around (cx, cy).
func (g *cellGrid) visitBlock(cx, cy int, fn func(*Node)) {
	for y := cy - 1; y <= cy+1; y++ {
		for x := cx - 1; x <= cx+1; x++ {
			g.visitCell(x, y, fn)
		}
	}
}

// forRing visits every node bucketed in cells at Chebyshev distance r
// from (cx, cy).
func (g *cellGrid) forRing(cx, cy, r int, fn func(*Node)) {
	if r == 0 {
		g.visitCell(cx, cy, fn)
		return
	}
	for x := cx - r; x <= cx+r; x++ {
		g.visitCell(x, cy-r, fn)
		g.visitCell(x, cy+r, fn)
	}
	for y := cy - r + 1; y <= cy+r-1; y++ {
		g.visitCell(cx-r, y, fn)
		g.visitCell(cx+r, y, fn)
	}
}

// buildSparseRow fills row with links to every node in the 3×3 bucket
// neighborhood of node's cell — a superset of all nodes within the
// cull radius at this row's power — in ascending node-ID order.
// Everything outside the neighborhood is below both the sense and
// decode floors. On one unbounded cell the neighborhood is every node,
// each stored at its own index.
func (n *Network) buildSparseRow(row *linkRow, node *Node) {
	g := n.spatialIndex(row.power)
	// Tag after the index: a refill that changes the grid's shape bumps
	// the epoch, and this row is built on the new cells.
	row.epoch = n.posEpoch
	row.stale = false
	row.patches = row.patches[:0]
	n.rows.FullBuilds++
	row.ownerPos = node.Pos
	row.gen++ // invalidate caches keyed on this row's content
	if words := (len(n.nodes) + 63) >> 6; cap(row.bits) < words {
		row.bits = make([]uint64, words)
	} else {
		row.bits = row.bits[:words]
		clear(row.bits)
	}
	n.maxRowPower = max(n.maxRowPower, row.power)
	cx, cy := g.cellOf(node.Pos)
	// Merge the up-to-nine ID-sorted buckets, computing links in the
	// merged (ascending ID) order.
	var runs [9][]*Node
	nr, total := 0, 0
	for y := cy - 1; y <= cy+1; y++ {
		if y < 0 || y >= g.rows {
			continue
		}
		for x := cx - 1; x <= cx+1; x++ {
			if x < 0 || x >= g.cols {
				continue
			}
			if b := g.buckets[y*g.cols+x]; len(b) > 0 {
				runs[nr] = b
				nr++
				total += len(b)
			}
		}
	}
	row.ids = slices.Grow(row.ids[:0], total)
	row.ls = slices.Grow(row.ls[:0], total)
	for {
		best := -1
		for i := 0; i < nr; i++ {
			if len(runs[i]) == 0 {
				continue
			}
			if best < 0 || runs[i][0].ID < runs[best][0].ID {
				best = i
			}
		}
		if best < 0 {
			break
		}
		o := runs[best][0]
		runs[best] = runs[best][1:]
		row.ids = append(row.ids, int32(o.ID))
		row.ls = append(row.ls, n.linkFromTo(row.power, node, o))
		row.bits[o.ID>>6] |= 1 << (o.ID & 63)
	}
}

// setBit marks id stored, growing the bitmap when id is a node added
// after the row was built.
func (r *linkRow) setBit(id int) {
	if w := id >> 6; w >= len(r.bits) {
		r.bits = append(r.bits, make([]uint64, w+1-len(r.bits))...)
	}
	r.bits[id>>6] |= 1 << (id & 63)
}

// bitSet reports whether bit id of bits is set, as in a row's
// membership bitmap; bits past the end are clear.
func bitSet(bits []uint64, id int) bool {
	w := id >> 6
	return w < len(bits) && bits[w]&(1<<(id&63)) != 0
}

// linkTo returns the stored link toward o and whether the row stores
// one. A miss means o was outside the cull radius when the row was
// built (or rebuilt last): below both the sense and decode floors. The
// bitmap answers a miss; a hit is searched for.
func (r *linkRow) linkTo(o *Node) (link, bool) {
	if !bitSet(r.bits, o.ID) {
		return link{}, false
	}
	return r.stored(int32(o.ID)), true
}

// stored returns the link toward id, which the row stores.
func (r *linkRow) stored(id int32) link {
	return r.ls[searchID(r.ids, id)]
}

// searchID returns the index of id in the ascending ids, which hold it.
func searchID(ids []int32, id int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mwTo returns the row's received power in milliwatts at o, for
// interference sums. A culled pair still contributes its sub-floor
// power (the exact sum includes every overlapped transmitter), so a
// miss recomputes it from the row's pinned transmitter position.
func (n *Network) mwTo(r *linkRow, o *Node) float64 {
	if l, ok := r.linkTo(o); ok {
		return l.mw
	}
	return culledMW(&n.cfg.Env, r.power, r.ownerPos.Distance(o.Pos))
}

// bracketTo bounds the row's term in an exact interference sum at o: a
// stored link's power exactly, a culled pair's from the row's farTable,
// which rowFar has set. Most pairs are culled: one bit test, then the
// bracket.
func (r *linkRow) bracketTo(o *Node) (lo, hi float64) {
	if bitSet(r.bits, o.ID) {
		l := r.stored(int32(o.ID))
		return l.mw, l.mw
	}
	return r.far.bracket(dist2(r.ownerPos, o.Pos))
}

// dist2 returns the squared distance between a and b as the farTable
// brackets take it.
func dist2(a, b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// culledMW is the received power in milliwatts of a transmitter at
// power dBm over d meters: the term an interference sum adds for a
// pair its row culled, and the value farTable samples.
func culledMW(env *phy.Environment, power, d float64) float64 {
	return pow10(env.RxPowerDBm(power, d, nil) / 10)
}

// farTable brackets culledMW from a squared distance without a log or
// pow per pair. Received power is non-increasing in distance for any
// path-loss exponent (flat below the 1 m clamp), so a pair whose
// computed d² lies in [e_k, e_{k+1}) receives between culledMW at the
// two edges. The edges are the float64 values whose bits below the top
// farMantBits of the mantissa are zero, so a d² finds its bucket by a
// shift of its bits. Entries are computed on first use, on the exact
// path, one table per transmit power (the environment is fixed per
// network).
//
// farGuard widens each edge value relatively. The computed pair value
// differs from the real path-loss curve at the computed distance by a
// few ulps of Hypot, Log10 and Pow, and the computed d² from the
// true one by a few ulps: all below 1e-12 relative, so the widened
// bracket always contains the value mwTo computes.
type farTable struct {
	env   *phy.Environment
	power float64
	mw    []float64 // culledMW at edge i; 0 = not computed yet
}

const (
	farMantBits = 8
	farShift    = 52 - farMantBits
	// farBase is the bucket index of d² = 1 m², the clamp edge.
	farBase = 0x3FF0000000000000 >> farShift
	// farEdges spans d² from 1 to 2⁴⁰ m² (d up to ~1000 km).
	farEdges = 40<<farMantBits + 1
	farGuard = 1e-9
)

// rowFar returns the bracket table for row's transmit power, one per
// power, cached on the row so the map is consulted only when the row's
// power changed since its last use.
func (n *Network) rowFar(row *linkRow) *farTable {
	if f := row.far; f != nil && f.power == row.power {
		return f
	}
	f := n.farTables[row.power]
	if f == nil {
		f = &farTable{env: &n.cfg.Env, power: row.power, mw: make([]float64, farEdges)}
		if n.farTables == nil {
			n.farTables = make(map[float64]*farTable)
		}
		n.farTables[row.power] = f
	}
	row.far = f
	return f
}

// edge returns culledMW at bucket edge i.
func (t *farTable) edge(i int) float64 {
	v := t.mw[i]
	if v == 0 {
		d2 := math.Float64frombits(uint64(i+farBase) << farShift)
		v = culledMW(t.env, t.power, math.Sqrt(d2))
		t.mw[i] = v
	}
	return v
}

// bracket returns lo ≤ culledMW(power, d) ≤ hi for a pair whose
// computed squared distance is d2. Below 1 m² the clamp pins the value
// to the d = 1 edge; past the table's end only the upper edge binds.
func (t *farTable) bracket(d2 float64) (lo, hi float64) {
	if d2 < 1 {
		v := t.edge(0)
		return v * (1 - farGuard), v * (1 + farGuard)
	}
	i := int(math.Float64bits(d2)>>farShift) - farBase
	if i+1 >= farEdges {
		return 0, t.edge(farEdges-1) * (1 + farGuard)
	}
	return t.edge(i+1) * (1 - farGuard), t.edge(i) * (1 + farGuard)
}

// snrTo returns the row's SNR toward o, recomputing the out-of-range
// value from the row's pinned transmitter position when the row culled
// it — callers see the same number an unculled row yields.
func (n *Network) snrTo(r *linkRow, o *Node) float64 {
	env := &n.cfg.Env
	if l, ok := r.linkTo(o); ok {
		return env.SNRdB(l.dBm)
	}
	return env.SNRdB(env.RxPowerDBm(r.power, r.ownerPos.Distance(o.Pos), nil))
}

// spCand is one in-range candidate of a culled medium loop, carrying
// its precomputed link.
type spCand struct {
	o *Node
	l link
}

// gatherCands collects row's stored neighbors that are attached to m
// (excluding skip) into dst, ordered by medium attachment order — the
// same set and order in which a walk of every attached node visits
// nodes with nonzero effect (everything else is below both floors).
func (m *medium) gatherCands(dst []spCand, row *linkRow, skip *Node) []spCand {
	dst = dst[:0]
	for i, id := range row.ids {
		o := m.net.nodes[id]
		if o == skip || o.medium != m {
			continue
		}
		if l := row.ls[i]; m.net.relevant(l) {
			dst = append(dst, spCand{o, l})
		}
	}
	// Insertion sort by attachment order. IDs ascend, which is
	// creation order — already attachment order unless channel
	// switches reordered the medium, so passes are near-linear.
	for i := 1; i < len(dst); i++ {
		c := dst[i]
		j := i - 1
		for j >= 0 && dst[j].o.mediumIdx > c.o.mediumIdx {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = c
	}
	return dst
}

// NearestAP returns the geometrically nearest AP to pos, answered from
// the spatial index by expanding-ring search; ties break by node
// creation order, matching a first-wins linear scan over the APs in
// creation order. The index carries all nodes and touches
// neither the RNG nor the event queue, so calling this leaves a
// network's trace as it was. On one unbounded cell it scans every AP.
func (n *Network) NearestAP(pos Position) *Node {
	if len(n.nodes) == 0 {
		return nil
	}
	g := n.spatialIndex(0)
	cx, cy := g.cellAt(pos)
	var best *Node
	bestD := math.Inf(1)
	for r := 0; ; r++ {
		// Cells at Chebyshev ring r lie at least (r-1) cell edges from
		// pos; once that exceeds the best distance no closer AP exists.
		// The bound is strict, so rings that could hold an equidistant
		// lower-ID AP are still scanned.
		if best != nil && float64(r-1)*g.cell > bestD {
			break
		}
		// Stop once the ring interior has swallowed the whole grid.
		if cx-r+1 <= 0 && cx+r-1 >= g.cols-1 && cy-r+1 <= 0 && cy+r-1 >= g.rows-1 {
			break
		}
		g.forRing(cx, cy, r, func(o *Node) {
			if !o.IsAP {
				return
			}
			if d := o.Pos.Distance(pos); d < bestD || (d == bestD && o.ID < best.ID) {
				best, bestD = o, d
			}
		})
	}
	return best
}

// LinkStats forces every link row current and reports the matrix
// population: row count, total stored directed links, and the longest
// row — the O(N·k) versus O(N²) memory evidence the campus-scale
// tests assert on. A network that culls nothing stores N links per row.
func (n *Network) LinkStats() (rows, links, maxRow int) {
	for _, node := range n.nodes {
		stored := len(n.rowFor(node).ids)
		links += stored
		maxRow = max(maxRow, stored)
	}
	return len(n.nodes), links, maxRow
}
