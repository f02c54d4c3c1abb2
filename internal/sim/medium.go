package sim

import (
	"math"

	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// medium models one radio channel: active transmissions, carrier-sense
// notification to attached nodes, and frame delivery with collision,
// capture, and frame-error effects. Propagation delay is neglected
// (sub-microsecond at conference-hall scale).
type medium struct {
	net     *Network
	channel phy.Channel
	nodes   []*Node
	active  []*transmission
	// obsScratch is the reused Overlapped backing for tap
	// observations (Taps may not retain it).
	obsScratch []TxRef
	// senseScratch/candScratch are the reused candidate buffers of the
	// culled transmit and complete walks (separate so a
	// transmit nested under a completion can't clobber the delivery
	// set). They receive copies of the per-row cached candidate sets.
	senseScratch []spCand
	candScratch  []spCand
	// attachGen counts attach/detach mutations; per-row candidate-set
	// caches carry the generation they were gathered at, so membership
	// or delivery-order changes invalidate them without a scan.
	attachGen uint64
	// interfScratch holds the batched per-receiver interference sums of
	// one completion, indexed by node ID (stale outside the receivers
	// the current completion zeroed).
	interfScratch []float64
	// eligScratch holds the subset of candidates that pass the
	// deterministic delivery gates during one culled completion's
	// interference accumulation; consumed before any callback runs.
	eligScratch []spCand
	// bracketScratch holds the per-candidate [lo, hi] interference
	// bounds of one culled completion, parallel to eligScratch.
	bracketScratch [][2]float64
}

// transmission is one in-flight frame on the medium. Transmissions
// are pooled on the Network and recycled once the transmission and
// every transmission that overlapped it have completed (overlap lists
// are read at delivery time, which can be after the interferer left
// the air).
type transmission struct {
	from *Node
	med  *medium
	row  *linkRow // transmitter's link row, pinned at transmit
	// frame is the encoded MAC frame without FCS, in a buffer reused
	// across the pool.
	frame   []byte
	parsed  dot11.Frame
	rate    phy.Rate
	wireLen int
	start   phy.Micros
	end     phy.Micros
	// seqno is the creation order, the canonical ordering of overlap
	// lists (active-set iteration order is not stable under
	// swap-delete, but interference sums must stay bit-identical).
	seqno     uint64
	activeIdx int
	// overlapped lists transmissions whose airtime intersected this
	// one, in seqno order; collision decisions are made per receiver
	// at delivery.
	overlapped []*transmission
	// refs counts overlapping transmissions that have not completed
	// yet; the struct returns to the pool when done && refs == 0.
	refs int
	done bool
	// completeFn is the completion callback, allocated once per
	// pooled struct.
	completeFn func()
	// Frame storage: transmit copies the caller's frame here so
	// callers can build frames in per-node scratch space.
	dataStore dot11.Data
	rtsStore  dot11.RTS
	ctsStore  dot11.CTS
	ackStore  dot11.ACK
}

// getTx takes a transmission from the pool (or allocates one).
func (n *Network) getTx() *transmission {
	if k := len(n.txFree); k > 0 {
		tx := n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
		return tx
	}
	tx := &transmission{}
	tx.completeFn = func() { tx.med.complete(tx) }
	return tx
}

// putTx returns a transmission to the pool, dropping references so
// frames and nodes become collectable, and its beacon, if it carried
// one, to the beacon pool.
func (n *Network) putTx(tx *transmission) {
	if b, ok := tx.parsed.(*dot11.Beacon); ok {
		n.beaconFree = append(n.beaconFree, b)
	}
	tx.from = nil
	tx.med = nil
	tx.row = nil
	tx.parsed = nil
	tx.overlapped = tx.overlapped[:0]
	tx.refs = 0
	tx.done = false
	tx.dataStore.Body = nil
	n.txFree = append(n.txFree, tx)
}

// getBeacon takes a beacon from the pool (or allocates one).
func (n *Network) getBeacon() *dot11.Beacon {
	if k := len(n.beaconFree); k > 0 {
		b := n.beaconFree[k-1]
		n.beaconFree = n.beaconFree[:k-1]
		return b
	}
	return new(dot11.Beacon)
}

func newMedium(n *Network, c phy.Channel) *medium {
	return &medium{net: n, channel: c}
}

// attach registers a node with the medium. mediumIdx mirrors the
// node's position in the attachment order — the delivery order — so
// culled loops can reproduce it without scanning m.nodes.
func (m *medium) attach(n *Node) {
	n.mediumIdx = len(m.nodes)
	m.nodes = append(m.nodes, n)
	n.medium = m
	m.attachGen++
}

// detach removes a node (used when an AP switches channels). Removal
// preserves order: the node list's order fixes the delivery order.
func (m *medium) detach(n *Node) {
	for i, o := range m.nodes {
		if o == n {
			m.nodes = append(m.nodes[:i], m.nodes[i+1:]...)
			for j := i; j < len(m.nodes); j++ {
				m.nodes[j].mediumIdx = j
			}
			break
		}
	}
	if n.medium == m {
		n.medium = nil
	}
	m.attachGen++
}

// cachedCands returns row's gathered candidate set, rebuilding it only
// when the row or the medium membership changed since the last gather.
// The returned slice is the cache itself: callers that may trigger
// nested mediums work (delivery, sense notification) copy it into
// their scratch first.
func (m *medium) cachedCands(row *linkRow, owner *Node) []spCand {
	if row.candsMed != m || row.candsAtt != m.attachGen || row.candsGen != row.gen {
		row.cands = m.gatherCands(row.cands, row, owner)
		row.candsMed = m
		row.candsAtt = m.attachGen
		row.candsGen = row.gen
	}
	return row.cands
}

// interfFor returns the per-receiver interference scratch sized for n
// node IDs. Entries are not cleared here: the culled walk writes only
// its candidates' slots (settleCapture), the full walk zeroes the
// whole span.
func (m *medium) interfFor(n int) []float64 {
	if cap(m.interfScratch) < n {
		m.interfScratch = make([]float64, n)
	}
	return m.interfScratch[:n]
}

// transmit puts a frame on the air from node n. The frame is copied
// into transmission-owned storage (for the MAC types of the DCF hot
// path), so the caller may reuse f immediately. It returns the
// transmission end time. DCF rules (waiting for idle, backoff) are
// the caller's responsibility; SIFS responses call this directly.
func (m *medium) transmit(n *Node, f dot11.Frame, r phy.Rate) phy.Micros {
	now := m.net.q.Now()
	tx := m.net.getTx()
	tx.from = n
	tx.med = m
	tx.row = m.net.rowFor(n)
	switch ff := f.(type) {
	case *dot11.Data:
		tx.dataStore = *ff
		tx.parsed = &tx.dataStore
	case *dot11.ACK:
		tx.ackStore = *ff
		tx.parsed = &tx.ackStore
	case *dot11.CTS:
		tx.ctsStore = *ff
		tx.parsed = &tx.ctsStore
	case *dot11.RTS:
		tx.rtsStore = *ff
		tx.parsed = &tx.rtsStore
	default:
		tx.parsed = f // beacon: pooled on the Network, returned at recycle
	}
	tx.frame = tx.parsed.AppendTo(tx.frame[:0])
	tx.rate = r
	tx.wireLen = f.WireLen()
	tx.start = now
	tx.end = now + phy.Airtime(tx.wireLen, r)
	tx.seqno = m.net.txSeq
	m.net.txSeq++

	// Mark mutual overlap with everything already on the air.
	for _, o := range m.active {
		o.overlapped = append(o.overlapped, tx)
		o.refs++
		tx.overlapped = append(tx.overlapped, o)
		tx.refs++
	}
	// The active set is unordered (swap-delete); restore creation
	// order so per-receiver interference sums add in a deterministic
	// order. Appends to the others' lists stay sorted for free: tx
	// has the largest seqno so far.
	for i := 1; i < len(tx.overlapped); i++ {
		o := tx.overlapped[i]
		j := i - 1
		for j >= 0 && tx.overlapped[j].seqno > o.seqno {
			tx.overlapped[j+1] = tx.overlapped[j]
			j--
		}
		tx.overlapped[j+1] = o
	}
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)

	// Carrier-sense notification: nodes that sense this transmitter
	// see the medium go busy. A culling network visits only the
	// in-range neighborhood, in the same attachment order the full walk
	// takes — no culled node senses the transmitter, so the full walk
	// would skip it anyway. A network that culls nothing walks every
	// attached node, whose row entry sits at its ID.
	env := &m.net.cfg.Env
	if m.net.sparse {
		m.senseScratch = append(m.senseScratch[:0], m.cachedCands(tx.row, n)...)
		for _, c := range m.senseScratch {
			if env.Senses(c.l.dBm) {
				c.o.mediumBusyDelta(+1)
			}
		}
	} else {
		ls := tx.row.ls
		for _, o := range m.nodes {
			if o != n && env.Senses(ls[o.ID].dBm) {
				o.mediumBusyDelta(+1)
			}
		}
	}
	m.net.q.At(tx.end, tx.completeFn)
	return tx.end
}

// complete removes tx from the air, notifies carrier sense, delivers
// the frame to potential receivers, and feeds the observation taps.
func (m *medium) complete(tx *transmission) {
	// O(1) swap-delete from the active set.
	last := len(m.active) - 1
	if tx.activeIdx != last {
		moved := m.active[last]
		m.active[tx.activeIdx] = moved
		moved.activeIdx = tx.activeIdx
	}
	m.active[last] = nil
	m.active = m.active[:last]

	// Batched pre-pass: one walk of the overlap list per event pop,
	// instead of one per receiver. Half-duplex senders are stamped with
	// a completion-unique token (seqnos are unique, so stale stamps from
	// earlier completions can never match). The full walk accumulates
	// per-receiver interference interferer-outer — each receiver's slot
	// adds the identical terms in the identical seqno order a
	// per-receiver walk would, so the float sums are bit-identical; the
	// culled walk settles each receiver's capture test from an
	// interference bracket first (settleCapture).
	// The FER decision context (table column bracket) is fetched once
	// per transmission rather than once per receiver.
	deaf := tx.seqno + 1
	var interf []float64
	for _, it := range tx.overlapped {
		it.from.deafSeq = deaf
	}
	var lk phy.FERLookup
	if m.net.fer != nil {
		lk = m.net.fer.Lookup(tx.wireLen, tx.rate)
	}

	// Carrier-sense release, then delivery. A culling network gathers
	// the in-range neighborhood once (attachment order, matching the
	// full walk): a culled node is neither sensed nor above the noise
	// floor, so the full walk would traverse it with zero effect — and
	// zero RNG draws, since culling implies no shadowing. A network
	// that culls nothing walks every attached node: each one draws a
	// shadowing variate.
	env := &m.net.cfg.Env
	if m.net.sparse {
		m.candScratch = append(m.candScratch[:0], m.cachedCands(tx.row, tx.from)...)
		cands := m.candScratch
		if len(tx.overlapped) > 0 {
			// Settle capture only for candidates that will reach the
			// SINR test: deliverable's earlier gates (decode floor, OFDM
			// capability, half-duplex) are all deterministic in a culling
			// network — no shadowing, so no RNG draw is skipped — and a
			// gated-out receiver never reads its interference slot.
			// Sense-only-range neighbors and b-only receivers of OFDM
			// frames are most of a campus neighborhood, so this filter,
			// not the batching, is what keeps the pre-pass cheap.
			ofdm := tx.rate.OFDM()
			elig := m.eligScratch[:0]
			interf = m.interfFor(len(m.net.nodes))
			for _, c := range cands {
				if env.SNRdB(c.l.dBm) <= 0 {
					continue
				}
				if ofdm && !c.o.GCapable {
					continue
				}
				if c.o.deafSeq == deaf {
					continue
				}
				elig = append(elig, c)
			}
			m.settleCapture(tx, elig, interf)
			m.eligScratch = elig[:0]
		}
		for _, c := range cands {
			if env.Senses(c.l.dBm) {
				c.o.mediumBusyDelta(-1)
			}
		}
		for _, c := range cands {
			snr, ok := m.deliverable(c.o, tx, c.l, deaf, interf, lk)
			if !ok {
				continue
			}
			c.o.receive(tx, snr)
		}
	} else {
		if len(tx.overlapped) > 0 {
			interf = m.interfFor(len(m.net.nodes))
			clear(interf)
			for _, it := range tx.overlapped {
				ls := it.row.ls
				for i := range ls {
					interf[i] += ls[i].mw
				}
			}
		}
		ls := tx.row.ls
		for _, o := range m.nodes {
			if o != tx.from && env.Senses(ls[o.ID].dBm) {
				o.mediumBusyDelta(-1)
			}
		}

		// Deliver to each node that could have heard the frame.
		for _, o := range m.nodes {
			if o == tx.from {
				continue
			}
			snr, ok := m.deliverable(o, tx, ls[o.ID], deaf, interf, lk)
			if !ok {
				continue
			}
			o.receive(tx, snr)
		}
	}

	// Feed taps. Frame and Overlapped alias reused buffers; Taps
	// must not retain them past the call.
	if len(m.net.taps) > 0 {
		m.obsScratch = m.obsScratch[:0]
		for _, o := range tx.overlapped {
			m.obsScratch = append(m.obsScratch, TxRef{
				FromID: o.from.ID, FromPos: o.from.Pos, TxPowerDBm: o.from.TxPower,
			})
		}
		obs := TxObservation{
			Time:               tx.start,
			End:                tx.end,
			Channel:            m.channel,
			Rate:               tx.rate,
			Frame:              tx.frame,
			WireLen:            tx.wireLen,
			FromID:             tx.from.ID,
			FromPos:            tx.from.Pos,
			TxPowerDBm:         tx.from.TxPower,
			Overlapped:         m.obsScratch,
			CaptureThresholdDB: m.net.cfg.CaptureThresholdDB,
		}
		for _, t := range m.net.taps {
			t.ObserveTransmission(obs)
		}
	}
	tx.from.transmissionDone(tx)

	// Recycle: tx frees when everything that overlapped it is done
	// too (their delivery decisions read tx through their overlap
	// lists); completing may also release already-done overlappers
	// that were only waiting on tx.
	tx.done = true
	for _, o := range tx.overlapped {
		o.refs--
		if o.done && o.refs == 0 {
			m.net.putTx(o)
		}
	}
	if tx.refs == 0 {
		m.net.putTx(tx)
	}
}

// captureGuardDB keeps bracket capture decisions clear of the
// threshold by far more than the few-ulp error of the dB conversion.
const captureGuardDB = 1e-9

// coarseSlack widens the coarse tier's distance bounds by a share of
// D+rmax against rounding in the positions' differences and square
// roots: a few ulps of D+rmax, so the bound holds without leaning on
// farTable's own guard (which would absorb that rounding too).
const coarseSlack = 1e-9

// settleCapture fills interf for a culled completion's eligible
// receivers so that deliverable's SINR test reaches the decision the
// exact interference sum would. The exact sum adds, in seqno order,
// each interferer's stored link power, or for a pair its row culled,
// the sub-floor power recomputed from the row's pinned transmitter
// position. Recomputing costs a Hypot, Log10 and Pow per culled pair,
// and on a campus most pairs are culled. So each receiver first gets
// a bracket [lo, hi] on the exact sum, in up to three tiers:
//
//   - Coarse: a current interferer row (see rowCurrent) stores exactly
//     what culledMW gives at today's positions, so its term at every
//     receiver is bounded by geometry alone. With the transmitter's
//     pinned position as center and rmax the farthest eligible
//     receiver from it, an interferer at distance D lies between
//     D−rmax and D+rmax from every receiver (triangle inequality), and
//     when D−rmax exceeds the cell edge it enters every receiver's
//     bracket as one farTable pair at those two distances. Every other
//     interferer enters per pair: from geometry alone if its row is
//     current, else as bracketTo gives it.
//   - Fine: a receiver the coarse bracket leaves undecided sums every
//     interferer per pair, stored terms exactly (bracketTo).
//   - Exact: whatever is still undecided takes the exact sum.
//
// All bracket sums are widened by the float-summation error bound, so
// the exact float sum lies inside. A receiver whose SINR clears the
// threshold at the upper end gets 0, the no-overlap value, and one
// that misses it at the lower end gets +Inf, a certain collision; both
// with captureGuardDB to spare, compared in linear power.
func (m *medium) settleCapture(tx *transmission, elig []spCand, interf []float64) {
	net := m.net
	if cap(m.bracketScratch) < len(elig) {
		m.bracketScratch = make([][2]float64, len(elig))
	}
	br := m.bracketScratch[:len(elig)]
	for j := range br {
		br[j] = [2]float64{}
	}
	ctr := tx.row.ownerPos
	r2 := 0.0
	for _, c := range elig {
		r2 = max(r2, dist2(ctr, c.o.Pos))
	}
	rmax := math.Sqrt(r2)
	var clo, chi float64
	for _, it := range tx.overlapped {
		row := it.row
		far := net.rowFar(row)
		if !net.rowCurrent(row) {
			for j, c := range elig {
				lo, hi := row.bracketTo(c.o)
				br[j][0] += lo
				br[j][1] += hi
			}
			continue
		}
		d := math.Sqrt(dist2(row.ownerPos, ctr))
		s := coarseSlack * (d + rmax)
		if near := d - rmax - s; near > net.grid.cell {
			farthest := d + rmax + s
			lo, _ := far.bracket(farthest * farthest)
			_, hi := far.bracket(near * near)
			clo += lo
			chi += hi
			continue
		}
		for j, c := range elig {
			lo, hi := far.bracket(dist2(row.ownerPos, c.o.Pos))
			br[j][0] += lo
			br[j][1] += hi
		}
	}
	// A float sum of k nonnegative terms, in any order, is within a
	// relative (k-1)·2⁻⁵³/(1-(k-1)·2⁻⁵³) of the real sum; 4(k+1)·2⁻⁵³
	// covers that for the exact sum and the bracket sums, plus the
	// widening multiply's rounding.
	slack := float64(len(tx.overlapped)+1) * 0x1p-51
	ct := captureTest{net.captureRatio(tx.rate), net.noiseMW, slack}
	for j, c := range elig {
		if v, ok := ct.settle(c.l.mw, br[j][0]+clo, br[j][1]+chi); ok {
			interf[c.o.ID] = v
			net.capture.coarse++
			continue
		}
		var lo, hi float64
		for _, it := range tx.overlapped {
			l, h := it.row.bracketTo(c.o)
			lo += l
			hi += h
		}
		if v, ok := ct.settle(c.l.mw, lo, hi); ok {
			interf[c.o.ID] = v
			net.capture.fine++
			continue
		}
		sum := 0.0
		for _, it := range tx.overlapped {
			sum += net.mwTo(it.row, c.o)
		}
		interf[c.o.ID] = sum
		net.capture.exact++
	}
}

// captureRatio holds capture threshold thr's guarded decision ratios
// in linear power: a signal of mw milliwatts clears thr against
// interference plus noise x, with captureGuardDB to spare, when
// mw ≥ ok·x, and misses it when mw < fail·x.
type captureRatio struct{ thr, ok, fail float64 }

// captureRatio returns rate r's decision ratios, computed once per
// distinct threshold. Each ratio is widened by a relative 1e-12, far
// more than pow10's few-ulp error and far less than the guard.
func (n *Network) captureRatio(r phy.Rate) captureRatio {
	thr := CaptureThresholdFor(r, n.cfg.CaptureThresholdDB)
	for _, c := range n.capRatios {
		if c.thr == thr {
			return c
		}
	}
	c := captureRatio{
		thr:  thr,
		ok:   pow10((thr+captureGuardDB)/10) * (1 + 1e-12),
		fail: pow10((thr-captureGuardDB)/10) * (1 - 1e-12),
	}
	n.capRatios = append(n.capRatios, c)
	return c
}

// captureTest decides one completion's capture tests from interference
// brackets.
type captureTest struct {
	captureRatio
	noise, slack float64
}

// settle decides a signal of mw milliwatts against an interference
// bracket [lo, hi] before widening: 0 when it clears the threshold even
// at hi, +Inf when it misses it even at lo, and ok false when the
// bracket straddles the guard band.
func (t captureTest) settle(mw, lo, hi float64) (v float64, ok bool) {
	lo, hi = lo*(1-t.slack), hi*(1+t.slack)
	switch {
	case mw >= t.ok*(hi+t.noise):
		return 0, true
	case lo > 0 && mw < t.fail*(lo+t.noise):
		return math.Inf(1), true
	}
	return 0, false
}

// deliverable decides whether receiver o successfully decodes tx and
// returns the effective SNR. Three loss mechanisms apply, the same
// three the paper lists for unrecorded frames (Sec 4.4):
//
//  1. Low signal: the frame arrives below the noise floor margin.
//  2. Collision: an overlapping transmission's power at o brings the
//     SINR under the capture threshold.
//  3. Residual bit errors: a Bernoulli draw from the SNR/rate FER.
//
// A receiver that was itself transmitting during any part of tx is
// deaf (half-duplex); that is checked before the SINR test so a deaf
// node is not also counted as a collision victim. The per-transmission
// batch context comes from complete(): deaf is the half-duplex stamp,
// interf the per-receiver interference sums (nil when nothing
// overlapped; on culled completions, stand-ins with the same capture
// decision, see settleCapture), lk the transmission's FER table
// bracket.
func (m *medium) deliverable(o *Node, tx *transmission, l link, deaf uint64, interf []float64, lk phy.FERLookup) (snrDB float64, ok bool) {
	env := &m.net.cfg.Env
	rxPower := l.dBm
	if env.ShadowingSigmaDB > 0 {
		rxPower += m.net.rng.NormFloat64() * env.ShadowingSigmaDB
	}
	snr := env.SNRdB(rxPower)
	if snr <= 0 {
		return snr, false
	}
	// A b-only radio cannot demodulate ERP-OFDM: it senses the energy
	// (carrier sense above) but decodes nothing — checked before the
	// SINR test so a deaf-by-capability receiver is not counted as a
	// collision victim.
	if tx.rate.OFDM() && !o.GCapable {
		return snr, false
	}
	// Half-duplex: a node transmitting during any part of tx cannot
	// receive it, regardless of signal strength.
	if o.deafSeq == deaf {
		return snr, false
	}
	// Interference from overlapping transmissions at o, pre-summed by
	// complete(). A frame survives overlap only if its SINR clears the
	// rate-dependent capture threshold: slower modulations tolerate
	// more interference (the resilience that makes rate fallback
	// attractive, Sec 3). A certain collision that settleCapture
	// settled as +Inf needs no log: its SINR is -Inf.
	if interf != nil {
		if interfMW := interf[o.ID]; interfMW > 0 {
			if math.IsInf(interfMW, 1) {
				m.net.Stats.Collisions++
				return snr, false
			}
			sinr := rxPower - mwToDBm(interfMW+m.net.noiseMW)
			if sinr < CaptureThresholdFor(tx.rate, m.net.cfg.CaptureThresholdDB) {
				m.net.Stats.Collisions++
				return snr, false
			}
		}
	}
	// Residual bit errors at the noise-only SNR (a captured frame is
	// decodable by construction; thermal noise still applies). The
	// table decision equals u < phy.FER(snr, ...) exactly; the analytic
	// branch is the FERQuantumDB<0 dual-path pin.
	u := m.net.rng.Float64()
	if m.net.fer != nil {
		if lk.Lost(u, snr) {
			return snr, false
		}
	} else if u < phy.FER(snr, tx.wireLen, tx.rate) {
		return snr, false
	}
	return snr, true
}

// CaptureThresholdFor scales the base capture threshold by modulation
// robustness: 1 Mbps DBPSK captures at 40% of the base SINR
// requirement, 11 Mbps CCK needs the full base.
func CaptureThresholdFor(r phy.Rate, baseDB float64) float64 {
	switch r {
	case phy.Rate1Mbps:
		return baseDB * 0.4
	case phy.Rate2Mbps:
		return baseDB * 0.6
	case phy.Rate5_5Mbps:
		return baseDB * 0.8
	default:
		return baseDB
	}
}

func dbmToMW(dbm float64) float64 { return pow10(dbm / 10) }

func mwToDBm(mw float64) float64 { return 10 * log10(mw) }
