// Package sim is a discrete-event simulator of IEEE 802.11b
// infrastructure networks. It models the DCF MAC (CSMA/CA with binary
// exponential backoff, DIFS/SIFS timing, NAV, optional RTS/CTS,
// retransmission limits), a physical channel with path loss, capture,
// collisions and hidden terminals, per-station multirate adaptation,
// access points with beaconing and association, and application
// traffic generators.
//
// The simulator substitutes for the live IETF62 network the paper
// measured: it produces the same kind of over-the-air frame sequences
// (observable through the sniffer taps) that the paper's vicinity
// sniffing framework recorded. See DESIGN.md for the substitution
// argument.
//
// The hot paths are allocation-free at steady state: events live in a
// slab queue (package eventq), the pairwise radio link model is
// precomputed into one row per transmitter (every node under
// shadowing, the in-range neighborhood otherwise; see spatial.go), and
// in-flight transmissions are pooled and recycled by reference count.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"wlan80211/internal/dot11"
	"wlan80211/internal/eventq"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
)

// Position is a 2-D location in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(o Position) float64 {
	return math.Hypot(p.X-o.X, p.Y-o.Y)
}

// Config holds the simulator parameters.
type Config struct {
	// Seed seeds all randomness; runs are deterministic per seed.
	Seed int64
	// Env is the radio environment.
	Env phy.Environment
	// CWMax bounds the contention window. The paper reports MaxBO
	// growing 31→255 (phy.CWMaxPaper, the default); phy.CWMaxStandard
	// gives the 802.11 value.
	CWMax int
	// ShortRetryLimit bounds attempts for frames below RTSThreshold
	// (and RTS frames); LongRetryLimit for frames sent with RTS/CTS.
	ShortRetryLimit int
	LongRetryLimit  int
	// CaptureThresholdDB is the SINR above which the strongest of
	// overlapping frames still decodes (physical-layer capture).
	CaptureThresholdDB float64
	// QueueLimit bounds each station's transmit queue.
	QueueLimit int
	// DefaultTxPowerDBm is assigned to nodes that don't override it.
	DefaultTxPowerDBm float64
	// ForceDenseLinks culls nothing even when the environment is
	// deterministic (ShadowingSigmaDB == 0): every row stores a link to
	// every node, as under shadowing. It is the twin the equivalence
	// tests compare the culled path against.
	ForceDenseLinks bool
	// FERQuantumDB selects the SNR bin width in dB of the shared
	// quantized FER table consulted on frame-error draws: 0 selects
	// phy.DefaultFERQuantumDB, negative disables the table entirely so
	// every draw evaluates the analytic phy.FER. The table's decisions
	// are bit-identical to the analytic path at any quantum (see
	// phy.FERLookup.Lost), so this is purely a performance knob, kept
	// configurable for dual-path pinning tests.
	FERQuantumDB float64
}

// DefaultConfig returns the configuration used by the reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Env:                phy.DefaultEnvironment(),
		CWMax:              phy.CWMaxPaper,
		ShortRetryLimit:    7,
		LongRetryLimit:     4,
		CaptureThresholdDB: 10,
		QueueLimit:         50,
		DefaultTxPowerDBm:  phy.DefaultTxPowerDBm,
	}
}

// Tap observes every completed transmission on a channel, with the
// geometry needed to decide whether a passive observer would have
// captured it. The sniffer package implements Tap.
//
// The observation's Frame and Overlapped slices alias buffers the
// simulator recycles: they are valid only for the duration of the
// call. A Tap that retains them must copy.
type Tap interface {
	// ObserveTransmission is called once per completed transmission.
	ObserveTransmission(obs TxObservation)
}

// TxObservation is what a Tap sees: the over-the-air facts of one
// transmission, independent of any receiver.
type TxObservation struct {
	// Time is the transmission start time (first bit).
	Time phy.Micros
	// End is the transmission end time.
	End phy.Micros
	// Channel and Rate of the transmission.
	Channel phy.Channel
	Rate    phy.Rate
	// Frame is the encoded MAC frame without FCS. It aliases a reused
	// buffer: valid only during the ObserveTransmission call.
	Frame []byte
	// WireLen is the over-the-air length including FCS.
	WireLen int
	// FromID / FromPos / TxPowerDBm identify and locate the
	// transmitter. FromID is the dense node ID, stable for the node's
	// lifetime — observers can use it to memoize per-transmitter state.
	FromID     int
	FromPos    Position
	TxPowerDBm float64
	// Overlapped lists concurrent transmissions (potential colliders
	// at any given observer). The slice is reused between
	// observations: valid only during the call.
	Overlapped []TxRef
	// CaptureThresholdDB is the network's base capture threshold
	// (Config.CaptureThresholdDB), so observers decide overlap losses
	// as receivers do, via CaptureThresholdFor.
	CaptureThresholdDB float64
}

// TxRef locates an interfering transmitter.
type TxRef struct {
	FromID     int
	FromPos    Position
	TxPowerDBm float64
}

// link is one precomputed directed radio link: the deterministic
// (unshadowed) received power of transmitter→receiver in both dBm and
// milliwatts. The SNR and the carrier-sense test are functions of dBm
// (Environment.SNRdB, Environment.Senses), evaluated where they are
// read. Shadowing draws stay per-delivery so the RNG stream is
// unchanged from computing path loss on the fly.
type link struct {
	dBm float64
	mw  float64
}

// linkRow is one transmitter's row of the link matrix, tagged with the
// transmit power it was computed at so power changes (TPC, tests
// poking Node.TxPower) invalidate it lazily, and with the network's
// position epoch, which moves that cannot be applied locally bump to
// invalidate all rows the same way. A row also carries its own move
// invalidation: stale marks it for a full rebuild and patches lists
// nodes whose stored links must be recomputed, both set by MoveNode
// (see moveLocal) and applied lazily by rowFor, so a row pinned by an
// in-flight transmission keeps the contents it was transmitted with.
// A row starts stale: it is filled at its first use, not at the add.
//
// The parallel ids/ls slices hold the links the row stores, in
// ascending ID order: the nodes of the owner's cell neighborhood at
// build time (see spatial.go), then nodes added since, each appended
// when the link clears a floor (adds take the next ID, so appending
// keeps the order). A network that culls nothing stores every node at
// its own index, ids[i] == i. ownerPos is the transmitter position the
// row was computed at, so culled interference contributions can be
// recomputed on demand. bits is the membership bitmap of ids over node
// IDs, so a lookup of a culled pair — most lookups on a campus — is
// answered by one bit test: ⌈N/64⌉ words, 168 B per row at N = 1304
// against ≈3 KB of stored links.
type linkRow struct {
	power    float64
	epoch    uint64
	stale    bool
	ownerPos Position
	patches  []int32
	// gen counts buildSparseRow fills and patchRow passes; caches keyed
	// on a row carry the generation they were computed at so a change
	// invalidates them without a scan (and pinned rows, which are never
	// changed while held, keep hitting their own generation's entries).
	// A row at gen 0 has never been filled.
	gen  uint32
	ids  []int32
	ls   []link
	bits []uint64
	// far caches the culled-interference bracket table for power
	// (rowFar), so settleCapture looks none up per interferer.
	far *farTable

	// cands memoizes gatherCands for this row (culling networks): the
	// attached in-range candidate set in delivery order, valid while
	// the row generation and the medium's attachment generation both
	// stand. Callers copy it into their scratch before iterating so a
	// nested rebuild cannot clobber a loop in progress.
	cands    []spCand
	candsMed *medium
	candsAtt uint64
	candsGen uint32
}

// Network is a simulated 802.11b network.
type Network struct {
	cfg    Config
	rng    *rand.Rand
	q      eventq.Queue
	media  map[phy.Channel]*medium
	nodes  []*Node
	byAddr map[dot11.Addr]*Node
	// links holds one link row per transmitter, indexed by node ID.
	// Rows are pointers so in-flight transmissions can hold them across
	// mid-run node additions.
	links   []*linkRow
	noiseMW float64
	taps    []Tap
	// posEpoch counts global invalidations: moves or grid refills that
	// change the grid's shape, which only a culling network's grid has.
	// Rows tagged with an older epoch rebuild lazily on next use (the
	// same mechanism as the power tag).
	posEpoch uint64
	// sparse selects spatial culling: rows hold only the in-range
	// neighborhood, and the medium walks their cached candidates. Fixed
	// at New: only deterministic radios (no shadowing) can cull without
	// perturbing the per-delivery RNG stream. Otherwise the cull radius
	// is infinite, every row holds every node, and the medium walks
	// every attached node. See spatial.go.
	sparse bool
	grid   *cellGrid
	// fer is the quantized FER table answering frame-error draws (nil
	// when Config.FERQuantumDB is negative: analytic path).
	fer *phy.FERTable
	// farTables holds one culled-interference bracket table per
	// transmit power (culling networks; see farTable).
	farTables map[float64]*farTable
	// maxRowPower bounds every row's power from above (the
	// highest any row was built at), so addLocal can tell in O(1) that
	// the grid's cells cover every row's cull radius.
	maxRowPower float64
	// capture counts how culled completions settled capture tests: by
	// the coarse bracket, the fine bracket, or the exact sum (see
	// settleCapture). Tests read it to show every tier ran; it is not a
	// NetStats counter.
	capture struct{ coarse, fine, exact uint64 }
	// capRatios caches each capture threshold's linear decision ratios
	// (see captureRatio).
	capRatios []captureRatio
	// rows counts link-row maintenance (see RowCounters).
	rows RowCounters

	// Transmission pool (see medium.go).
	txFree []*transmission
	txSeq  uint64
	// beaconFree recycles beacon frames: putTx returns the one a
	// transmission carried, which its queue no longer holds.
	beaconFree []*dot11.Beacon

	// Counters for tests and reports.
	Stats NetStats
}

// NetStats aggregates ground-truth counters across the run (the
// analysis package never sees these; they validate its estimators).
type NetStats struct {
	DataSent      int64 // data transmission attempts
	DataAcked     int64 // acknowledged data frames
	DataDropped   int64 // frames dropped after retry limit
	RTSSent       int64
	CTSSent       int64
	ACKSent       int64
	BeaconsSent   int64
	Collisions    int64 // receiver-side overlap losses
	QueueDrops    int64 // enqueue refused, queue full
	AssocEvents   int64
	ChannelSwitch int64
}

// RowCounters counts link-row maintenance: full row builds,
// single-link move patches, patches that found no stored link and
// rebuilt the row instead, moves applied locally versus by the global
// position-epoch bump, node adds that extended only the rows around
// the newcomer versus every built row, and the links those adds
// computed (Extends). Tests read it to show that moves and adds stay
// local and that rows are filled only when used; it is diagnostic, not
// a NetStats counter, and no report or journal carries it.
type RowCounters struct {
	FullBuilds, Patches, Fallbacks, LocalMoves, GlobalMoves uint64
	LocalAdds, GlobalAdds, Extends                          uint64
}

// RowCounters returns the link-row maintenance counts so far.
func (n *Network) RowCounters() RowCounters { return n.rows }

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.CWMax == 0 {
		cfg = DefaultConfig()
	}
	n := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		media:   make(map[phy.Channel]*medium),
		byAddr:  make(map[dot11.Addr]*Node),
		noiseMW: pow10(cfg.Env.NoiseFloorDBm / 10),
		sparse:  cfg.Env.ShadowingSigmaDB == 0 && !cfg.ForceDenseLinks,

		maxRowPower: math.Inf(-1),
	}
	if cfg.FERQuantumDB >= 0 {
		n.fer = phy.SharedFERTable(cfg.FERQuantumDB)
	}
	return n
}

// Now returns the current simulation time.
func (n *Network) Now() phy.Micros { return n.q.Now() }

// EventsProcessed returns the number of event-queue callbacks fired so
// far — the simulator's fundamental unit of work. Benches report it
// per captured frame to track scheduler efficiency across PRs.
func (n *Network) EventsProcessed() uint64 { return n.q.Processed() }

// EventDeferrals returns the number of in-place re-arms of deferred
// events (see eventq.Event.Defer) — the residual heap traffic of the
// lazy DCF countdown.
func (n *Network) EventDeferrals() uint64 { return n.q.Deferrals() }

// EventHeapOps returns the total event-queue heap mutations beyond
// the unavoidable fire pops: schedulings (inserts), eager
// cancellations (removes), and deferred re-arms (sifts). This is the
// traffic the lazy DCF countdown cuts from O(overheard busy/idle
// transitions) to O(transmissions).
func (n *Network) EventHeapOps() uint64 {
	return n.q.Scheduled() + n.q.Cancelled() + n.q.Deferrals()
}

// Rand exposes the deterministic RNG (used by traffic generators).
func (n *Network) Rand() *rand.Rand { return n.rng }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// AddTap registers a transmission observer (e.g. a sniffer).
func (n *Network) AddTap(t Tap) { n.taps = append(n.taps, t) }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// mediumFor returns (creating if needed) the medium for a channel.
func (n *Network) mediumFor(c phy.Channel) *medium {
	m, ok := n.media[c]
	if !ok {
		m = newMedium(n, c)
		n.media[c] = m
	}
	return m
}

// linkFromTo computes one directed link entry at the given transmit
// power.
func (n *Network) linkFromTo(power float64, from, to *Node) link {
	dBm := n.cfg.Env.RxPowerDBm(power, from.Pos.Distance(to.Pos), nil)
	return link{dBm: dBm, mw: pow10(dBm / 10)}
}

// relevant reports whether a link clears a floor: the receiver senses
// the transmitter or decodes above the noise floor. A link that clears
// neither is one the medium skips with no side effect.
func (n *Network) relevant(l link) bool {
	env := &n.cfg.Env
	return env.Senses(l.dBm) || env.SNRdB(l.dBm) > 0
}

// rowFor returns node's link-matrix row, rebuilding it if the node's
// transmit power changed, the position epoch moved or a move marked it
// stale since it was computed, and applying queued move patches.
func (n *Network) rowFor(node *Node) *linkRow {
	row := n.links[node.ID]
	switch {
	case row.power != node.TxPower || row.epoch != n.posEpoch || row.stale:
		row.power = node.TxPower
		n.buildSparseRow(row, node)
	case len(row.patches) > 0:
		n.patchRow(row, node)
	}
	return row
}

// AddAP creates an access point on the given channel.
func (n *Network) AddAP(name string, pos Position, ch phy.Channel) *Node {
	ap := n.newNode(name, pos, ch)
	ap.IsAP = true
	// Enterprise APs (the Airespace hardware of Sec 4.1) adapt per
	// client from observed uplink SNR rather than blind loss-counting;
	// a per-destination SNR adapter models that.
	ap.adapterFactory = rate.NewSNRFactory()
	ap.adapters = make(map[dot11.Addr]rate.Adapter)
	n.scheduleBeacons(ap)
	return ap
}

// AddStation creates a client station associated with ap. The factory
// supplies its rate-adaptation scheme.
func (n *Network) AddStation(name string, pos Position, ap *Node, f rate.Factory) *Node {
	st := n.newNode(name, pos, ap.Channel)
	st.AP = ap
	st.adapter = f()
	st.associated = true
	ap.assocCount++
	n.Stats.AssocEvents++
	return st
}

func (n *Network) newNode(name string, pos Position, ch phy.Channel) *Node {
	id := len(n.nodes)
	node := &Node{
		net:     n,
		ID:      id,
		Name:    name,
		Addr:    dot11.AddrFromUint64(uint64(id) + 0x100),
		Pos:     pos,
		Channel: ch,
		TxPower: n.cfg.DefaultTxPowerDBm,
		cw:      phy.CWMin,
	}
	node.initCallbacks()
	n.nodes = append(n.nodes, node)
	n.byAddr[node.Addr] = node
	// Extend the existing transmitters' rows toward the new node, at
	// the power each row was computed at (lazy rebuild handles drift).
	// A culling network's row stores the link only when it clears a
	// floor: a below-both-floors entry is one the medium would skip
	// with zero side effects, and an interference lookup that misses
	// recomputes the same value from the row's positions. So rows
	// pinned by in-flight transmissions see mid-run churn as a culling-
	// free row would, and stored links stay O(N·k). Which rows can store
	// the link is a spatial question: while the add leaves the grid's
	// shape as it is, only the rows of the nodes in the newcomer's 3×3
	// block (addLocal). Otherwise every row computes the link.
	if n.addLocal(node) {
		n.rows.LocalAdds++
	} else {
		n.rows.GlobalAdds++
		for i, row := range n.links {
			n.extendRow(row, n.nodes[i], node)
		}
	}
	// The new node's own row is filled at its first use (rowFor). The
	// grid is refilled here as that fill would, so the next add finds
	// it current and can stay local.
	n.spatialIndex(node.TxPower)
	n.links = append(n.links, &linkRow{power: node.TxPower, stale: true})
	n.mediumFor(ch).attach(node)
	return node
}

// extendRow appends owner's row's link toward node, a newcomer with
// the highest ID. A culling network's row stores it only if it clears
// a floor (see newNode); one that culls nothing stores every link.
// A row never filled is left alone: it is stale until rowFor fills it,
// and nothing reads it before that (no transmission holds it).
func (n *Network) extendRow(row *linkRow, owner, node *Node) {
	if row.gen == 0 {
		return
	}
	n.rows.Extends++
	if l := n.linkFromTo(row.power, owner, node); n.relevant(l) || !n.sparse {
		row.ids = append(row.ids, int32(node.ID))
		row.ls = append(row.ls, l)
		row.setBit(node.ID)
	}
}

// scheduleBeacons emits a beacon from ap every beacon interval with a
// small deterministic phase offset so co-channel APs don't align.
func (n *Network) scheduleBeacons(ap *Node) {
	interval := phy.Micros(dot11.BeaconIntervalTU) * 1024
	offset := phy.Micros(ap.ID%10) * 7 * 1000
	var emit func()
	emit = func() {
		if ap.associatedNet() {
			b := n.getBeacon()
			b.Set(ap.Addr, "ietf62", uint8(ap.Channel), uint64(n.Now()), ap.nextSeq())
			ap.enqueueFrame(queuedFrame{kind: frameBeacon, beacon: b})
		}
		n.q.After(interval, emit)
	}
	n.q.After(offset, emit)
}

// Schedule runs fn at absolute simulation time t (clamped to now if in
// the past). Workload scripts use this for churn and load changes.
func (n *Network) Schedule(t phy.Micros, fn func()) { n.q.At(t, fn) }

// RunUntil advances simulation time to the deadline.
func (n *Network) RunUntil(t phy.Micros) { n.q.RunUntil(t) }

// RunFor advances simulation time by d.
func (n *Network) RunFor(d phy.Micros) { n.q.RunUntil(n.Now() + d) }

// MoveNode relocates a node. The link rows that can change follow
// lazily, on their next use, so the radio geometry follows on the next
// transmission. On an unchanged grid shape only the rows around the
// node are touched (see moveLocal); otherwise every row is invalidated
// through the position epoch (the same mechanism the power tag uses). Sniffers re-derive their per-transmitter state
// from the observation's FromPos, so passive observers follow
// automatically.
func (n *Network) MoveNode(node *Node, pos Position) {
	if node.Pos == pos {
		return
	}
	old := node.Pos
	node.Pos = pos
	if n.moveLocal(node, old) {
		n.rows.LocalMoves++
		return
	}
	n.rows.GlobalMoves++
	n.posEpoch++
}

// Disassociate removes a station from its AP and stops its traffic.
func (n *Network) Disassociate(st *Node) {
	if st.associated && st.AP != nil {
		st.associated = false
		st.AP.assocCount--
		n.Stats.AssocEvents++
	}
}

// Reassociate points st at a (possibly different) AP and channel.
func (n *Network) Reassociate(st *Node, ap *Node) {
	n.Disassociate(st)
	st.moveToChannel(ap.Channel)
	st.AP = ap
	st.associated = true
	ap.assocCount++
	n.Stats.AssocEvents++
}

// AssociatedCount returns the number of stations currently associated
// with ap.
func (n *Network) AssociatedCount(ap *Node) int { return ap.assocCount }

// AssociatedTotal returns the number of associated stations in the
// whole network (ground truth for Figure 4b).
func (n *Network) AssociatedTotal() int {
	total := 0
	for _, node := range n.nodes {
		if !node.IsAP && node.associated {
			total++
		}
	}
	return total
}

// String summarizes the network.
func (n *Network) String() string {
	aps, stas := 0, 0
	for _, node := range n.nodes {
		if node.IsAP {
			aps++
		} else {
			stas++
		}
	}
	return fmt.Sprintf("sim.Network{aps: %d, stations: %d, t: %dµs}", aps, stas, n.Now())
}
