package sim

import (
	"math"

	"wlan80211/internal/dot11"
	"wlan80211/internal/eventq"
	"wlan80211/internal/phy"
	"wlan80211/internal/rate"
)

func pow10(x float64) float64 { return math.Pow(10, x) }
func log10(x float64) float64 { return math.Log10(x) }

// zeroBody is the shared all-zeros payload for generated data frames
// (the simulator models sizes, not contents). Bodies beyond its length
// fall back to a per-frame allocation.
var zeroBody [4096]byte

// frameKind classifies queued transmissions.
type frameKind int

const (
	frameData frameKind = iota
	frameBeacon
)

// queuedFrame is one MSDU (or management frame) awaiting DCF access.
type queuedFrame struct {
	kind frameKind
	// data fields
	to       dot11.Addr
	size     int // MAC body bytes
	useRTS   bool
	enqueued phy.Micros
	seq      uint16
	retries  int
	// beacon payload, recycled at putTx
	beacon *dot11.Beacon
}

// wireLen returns the over-the-air frame length including FCS.
func (f *queuedFrame) wireLen() int {
	if f.beacon != nil {
		return f.beacon.WireLen()
	}
	return dot11.DataHeaderLen + f.size + 4
}

// respKind classifies the node's pending SIFS response. At most one
// response can be pending: two overlapping frames both addressed to
// this node cannot both clear the mutual-interference capture check,
// so two deliveries can never land within one SIFS.
type respKind int

const (
	respNone respKind = iota
	respACK
	respCTS
)

// Node is a station or access point.
type Node struct {
	net    *Network
	medium *medium
	// mediumIdx is the node's position in its medium's attachment
	// order (the delivery order), maintained by attach/detach so
	// spatially-culled loops can sort candidates without scanning.
	mediumIdx int
	ID        int
	Name      string
	Addr      dot11.Addr
	Pos       Position
	Channel   phy.Channel
	TxPower   float64
	IsAP      bool
	// UseRTS makes the node protect unicast data with RTS/CTS — the
	// minority behaviour the paper observed (Sec 6.1).
	UseRTS bool
	// GCapable marks an 802.11b/g dual-mode radio. b-only nodes cannot
	// demodulate ERP-OFDM frames (they sense the energy but decode
	// nothing, so they miss NAV updates carried at OFDM rates — the
	// protection-off interference of mixed cells), and a transmitter
	// never sends OFDM toward a peer that cannot decode it. Set before
	// traffic starts.
	GCapable bool
	// AP is the node's access point (nil for APs themselves).
	AP *Node

	// adapter drives rate selection for stations (single peer: the
	// AP). APs adapt per destination via adapterFactory/adapters —
	// one client's collisions must not drag down another's downlink.
	// gAdapterFactory, when set on a dual-mode AP, supplies the
	// adapter toward dual-mode peers (b-only peers keep adapterFactory).
	adapter         rate.Adapter
	adapterFactory  rate.Factory
	gAdapterFactory rate.Factory
	adapters        map[dot11.Addr]rate.Adapter
	associated      bool
	assocCount      int // for APs: number of associated stations

	// DCF state. The transmit queue is a ring over queue[qhead:].
	queue        []queuedFrame
	qhead        int
	seq          uint16
	cw           int
	backoff      int // remaining backoff slots
	busyCount    int // number of sensed in-flight transmissions
	navUntil     phy.Micros
	idleSince    phy.Micros // when busyCount last reached 0
	transmitting bool
	// deafSeq is the half-duplex stamp of the batched delivery pass:
	// complete() marks every overlapped sender with a completion-unique
	// token so the per-receiver loop answers "was this node
	// transmitting during tx?" in O(1). Stale stamps are inert (tokens
	// are never reused) — pure scratch, not simulation state.
	deafSeq uint64

	// Lazy countdown state. The DIFS+backoff wait is bookkept with
	// O(1) stamps: a busy medium freezes it (paused; slots bank at the
	// freeze), NAV extensions restart it behind the NAV via an eventq
	// deferral, and the single scheduled event re-keys itself in place
	// when it surfaces — heap traffic scales with waits that mature,
	// not with busy/idle transitions overheard. The countdown is
	// logically armed iff the handle is pending and not paused; a
	// paused handle is a logically-cancelled entry that drains (or is
	// re-deferred) lazily.
	countdown      eventq.Event
	countdownStart phy.Micros // when the wait (re)began; the NAV end while NAV-blocked
	paused         bool       // busy medium froze the wait; entry may linger

	awaiting     awaitKind
	awaitTimeout eventq.Event

	// Pending SIFS response (see respKind).
	pendingResp respKind
	respRA      dot11.Addr
	respDur     uint16

	// Preallocated event callbacks and frame scratch: the DCF loop
	// schedules thousands of events per simulated second, and closures
	// or frame structs allocated per event would dominate the profile.
	onCountdownFn func()
	onAwaitFn     func()
	onCTSDataFn   func()
	onRespFn      func()
	scratchData   dot11.Data
	scratchRTS    dot11.RTS
	scratchCTS    dot11.CTS
	scratchACK    dot11.ACK

	// Per-node ground-truth counters.
	Sent    int64 // data attempts
	Acked   int64 // acknowledged data frames
	Dropped int64 // data frames dropped at retry limit
}

type awaitKind int

const (
	awaitNone awaitKind = iota
	awaitCTS
	awaitACK
)

// initCallbacks binds the node's reusable event callbacks.
func (n *Node) initCallbacks() {
	n.onCountdownFn = func() {
		// The countdown popped. Under the lazy scheme this is not
		// necessarily maturity: the wait may have been frozen (busy
		// medium) since the event was armed, or this may be the NAV
		// stage completing. Any other pop is a transmit — the eager
		// scheme's countdown pop carried no checks at all (notably, a
		// backoff redrawn mid-await does not postpone an event the
		// eager scheme would have left in place).
		n.countdown = eventq.Event{}
		if n.paused || n.busyCount > 0 {
			// Frozen: the eager scheme had cancelled this event; the
			// busy→idle transition re-arms.
			return
		}
		if n.net.q.Now() <= n.countdownStart {
			// NAV-stage pop: the NAV waited out, arm the DIFS+backoff
			// leg from here, minting its fire rank inside this pop
			// exactly as the eager NAV-wait event did.
			n.countdown = n.net.q.At(n.countdownDeadline(), n.onCountdownFn)
			return
		}
		n.backoff = 0
		n.transmitHead()
	}
	n.onAwaitFn = func() {
		n.awaitTimeout = eventq.Event{}
		n.onExchangeFailure()
	}
	n.onCTSDataFn = func() {
		if n.queueLen() > 0 {
			n.transmitData(n.head())
		}
	}
	n.onRespFn = func() { n.fireResp() }
}

// nextSeq mints the next MAC sequence number.
func (n *Node) nextSeq() uint16 {
	n.seq = (n.seq + 1) & 0xfff
	return n.seq
}

// associatedNet reports whether the node should be active (APs always;
// stations only while associated).
func (n *Node) associatedNet() bool { return n.IsAP || n.associated }

// Adapter returns the node's rate adapter (stations). For APs it
// returns nil; use AdapterFor.
func (n *Node) Adapter() rate.Adapter { return n.adapter }

// SetGAdapterFactory supplies the rate-adaptation factory a dual-mode
// AP uses toward dual-mode peers; b-only peers keep the default
// factory. Call before the AP serves traffic.
func (n *Node) SetGAdapterFactory(f rate.Factory) { n.gAdapterFactory = f }

// AdapterFor returns the adapter used toward a destination: the
// per-destination adapter for APs, the single adapter otherwise. The
// adapter is created on first use; for dual-mode APs the peer's PHY
// capability (fixed for its lifetime) picks the factory.
func (n *Node) AdapterFor(to dot11.Addr) rate.Adapter {
	if n.adapterFactory == nil {
		return n.adapter
	}
	a, ok := n.adapters[to]
	if !ok {
		f := n.adapterFactory
		if n.gAdapterFactory != nil && n.GCapable {
			if peer := n.peerByAddr(to); peer != nil && peer.GCapable {
				f = n.gAdapterFactory
			}
		}
		a = f()
		n.adapters[to] = a
	}
	return a
}

// queueLen and head give ring-queue access to pending frames.
func (n *Node) queueLen() int      { return len(n.queue) - n.qhead }
func (n *Node) head() *queuedFrame { return &n.queue[n.qhead] }

// QueueLen returns the number of frames awaiting transmission.
func (n *Node) QueueLen() int { return n.queueLen() }

// SendData enqueues a data frame of size body bytes to the given
// destination. It reports whether the frame was accepted (the queue
// is bounded; overflowing traffic is dropped like a real NIC ring).
func (n *Node) SendData(to dot11.Addr, size int) bool {
	if size < 0 || !n.associatedNet() {
		return false
	}
	if n.queueLen() >= n.net.cfg.QueueLimit {
		n.net.Stats.QueueDrops++
		return false
	}
	f := queuedFrame{
		kind:     frameData,
		to:       to,
		size:     size,
		useRTS:   n.UseRTS && !to.IsGroup(),
		enqueued: n.net.q.Now(),
		seq:      n.nextSeq(),
	}
	n.enqueueFrame(f)
	return true
}

// enqueueFrame adds a frame and kicks the access procedure if idle.
func (n *Node) enqueueFrame(f queuedFrame) {
	wasEmpty := n.queueLen() == 0
	n.queue = append(n.queue, f)
	if wasEmpty && n.awaiting == awaitNone && !n.transmitting {
		// Fresh access: if the medium has been idle ≥ DIFS the frame
		// may go immediately (zero backoff), else draw a backoff.
		n.startAccess(true)
	}
}

// countdownArmed reports whether a countdown is logically armed: the
// event is still queued and the wait is not frozen. It is the lazy
// equivalent of the eager scheme's countdown.Scheduled() — a paused
// wait's lingering heap entry does not count.
func (n *Node) countdownArmed() bool {
	return !n.paused && n.countdown.Pending()
}

// startAccess begins (or resumes) the DIFS + backoff countdown for
// the head-of-queue frame. fresh marks a first attempt, which may
// transmit without backoff on a long-idle medium.
func (n *Node) startAccess(fresh bool) {
	if n.queueLen() == 0 || n.countdownArmed() || n.transmitting || n.awaiting != awaitNone {
		return
	}
	now := n.net.q.Now()
	if fresh {
		if n.busyCount == 0 && now >= n.navUntil && now-n.idleSince >= phy.DIFS {
			n.backoff = 0
		} else {
			n.backoff = n.net.rng.Intn(n.cw + 1)
		}
	}
	n.resumeCountdown()
}

// resumeCountdown arms the countdown if the medium is idle, or leaves
// it for the busy→idle notification otherwise. A frozen wait resumes
// with its banked backoff; the DIFS restarts from now, behind any
// NAV.
func (n *Node) resumeCountdown() {
	if n.countdownArmed() || n.queueLen() == 0 {
		return
	}
	if n.busyCount > 0 {
		return // mediumBusyDelta(-1) will resume us
	}
	n.paused = false
	now := n.net.q.Now()
	n.countdownStart = now
	if n.navUntil > now {
		// Virtual carrier sense: wait out the NAV first. The backoff
		// has not started, so countdownStart points at the NAV end; a
		// pause during this wait must consume no slots.
		n.countdownStart = n.navUntil
	}
	n.armCountdown()
}

// countdownDeadline is when the wait matures if the medium stays
// idle: DIFS plus the remaining backoff, measured from the later of
// the last resume and the NAV end.
func (n *Node) countdownDeadline() phy.Micros {
	return n.countdownStart + phy.DIFS + phy.Micros(n.backoff)*phy.SlotTime
}

// armCountdown brings the scheduled event up to the live target: an
// O(1) deferral stamp while a (possibly frozen and stale) event is
// still queued and not past the target, one cancel+reschedule
// otherwise. Resumed waits always target later than the entry they
// chase (the elapsed busy time outweighs the banked slots), so the
// fallback only triggers when a fresh wait supersedes a lingering
// frozen one — e.g. a NAV landing mid-backoff, or a redrawn backoff
// shorter than the abandoned wait's remainder.
//
// A NAV-blocked wait arms in two stages, like the eager scheme did:
// first to the NAV end, then — inside that pop — to DIFS+backoff
// beyond it. The two-stage shape is what keeps fire order (and so the
// shared RNG stream) bit-identical to cancel-and-reschedule: the
// final countdown's FIFO rank must be minted at the NAV end, not when
// the NAV was overheard.
func (n *Node) armCountdown() {
	t := n.countdownDeadline()
	if wait := n.countdownStart; wait > n.net.q.Now() {
		t = wait // NAV stage: the backoff leg arms inside this pop
	}
	if at, ok := n.countdown.When(); ok {
		if at <= t {
			n.countdown.Defer(t)
			return
		}
		n.countdown.Cancel()
	}
	n.countdown = n.net.q.At(t, n.onCountdownFn)
}

// pauseCountdown freezes the backoff timer when the medium goes busy,
// banking fully-elapsed slots (802.11 freezes, not resets, backoff).
// The scheduled event is left in the heap — marking the wait paused
// logically cancels it with no heap traffic; it drains or is
// re-deferred lazily.
func (n *Node) pauseCountdown() {
	if !n.countdownArmed() {
		return
	}
	elapsed := n.net.q.Now() - n.countdownStart - phy.DIFS
	if elapsed > 0 {
		consumed := int(elapsed / phy.SlotTime)
		if consumed > n.backoff {
			consumed = n.backoff
		}
		n.backoff -= consumed
	}
	n.paused = true
}

// mediumBusyDelta is called by the medium when a sensed transmission
// starts (+1) or ends (-1).
func (n *Node) mediumBusyDelta(d int) {
	was := n.busyCount
	n.busyCount += d
	if n.busyCount < 0 {
		n.busyCount = 0
	}
	if was == 0 && n.busyCount > 0 {
		n.pauseCountdown()
	}
	if was > 0 && n.busyCount == 0 {
		n.idleSince = n.net.q.Now()
		n.resumeCountdown()
	}
}

// transmitHead puts the head-of-queue frame on the air (RTS first if
// the frame uses RTS/CTS protection).
func (n *Node) transmitHead() {
	if n.queueLen() == 0 || n.transmitting {
		return
	}
	f := n.head()
	switch f.kind {
	case frameBeacon:
		n.transmitting = true
		n.net.Stats.BeaconsSent++
		n.medium.transmit(n, f.beacon, phy.ControlRate)
		return
	}
	if f.useRTS {
		n.transmitRTS(f)
		return
	}
	n.transmitData(f)
}

// dataRate queries the adapter with the node's SNR estimate toward the
// frame's receiver. An OFDM pick is clamped to 11 Mbps unless both
// ends are dual-mode — a g station that roamed into a b cell (or
// addresses a b peer) falls back to CCK rather than transmit frames
// its receiver cannot demodulate.
func (n *Node) dataRate(f *queuedFrame) phy.Rate {
	r := n.AdapterFor(f.to).RateFor(f.wireLen(), n.snrTowards(f.to))
	if r.OFDM() {
		peer := n.peerByAddr(f.to)
		if !n.GCapable || peer == nil || !peer.GCapable {
			r = phy.Rate11Mbps
		}
	}
	return r
}

// snrTowards estimates the SNR at the receiver using the deterministic
// path loss (what an SNR-based scheme would learn from ACKs).
func (n *Node) snrTowards(to dot11.Addr) float64 {
	peer := n.peerByAddr(to)
	if peer == nil {
		return 25 // unknown receiver: assume a healthy link
	}
	return n.net.snrTo(n.net.rowFor(n), peer)
}

// peerByAddr resolves an address to a node (nil for broadcast or
// unknown).
func (n *Node) peerByAddr(a dot11.Addr) *Node {
	if a.IsGroup() {
		return nil
	}
	return n.net.byAddr[a]
}

func (n *Node) transmitRTS(f *queuedFrame) {
	n.transmitting = true
	n.net.Stats.RTSSent++
	r := n.dataRate(f)
	n.scratchRTS = dot11.RTS{
		FC:       dot11.FrameControl{Type: dot11.TypeCtrl, Subtype: dot11.SubtypeRTS},
		Duration: dot11.NAVForRTS(f.wireLen(), r),
		RA:       f.to,
		TA:       n.Addr,
	}
	end := n.medium.transmit(n, &n.scratchRTS, phy.ControlRate)
	// CTS timeout: SIFS + CTS airtime + 2 slots of grace.
	n.awaiting = awaitCTS
	n.awaitTimeout = n.net.q.At(end+phy.SIFS+phy.CtsDuration(phy.ControlRate)+2*phy.SlotTime, n.onAwaitFn)
}

func (n *Node) transmitData(f *queuedFrame) {
	n.transmitting = true
	n.Sent++
	n.net.Stats.DataSent++
	r := n.dataRate(f)
	bssid := n.Addr
	if n.AP != nil {
		bssid = n.AP.Addr
	}
	var body []byte
	if f.size <= len(zeroBody) {
		body = zeroBody[:f.size]
	} else {
		body = make([]byte, f.size)
	}
	d := &n.scratchData
	if n.IsAP {
		*d = dot11.Data{
			FC:    dot11.FrameControl{Type: dot11.TypeData, Subtype: dot11.SubtypeData, FromDS: true},
			Addr1: f.to, Addr2: n.Addr, Addr3: n.Addr,
			Seq:  dot11.SeqControl{Num: f.seq & 0xfff},
			Body: body,
		}
	} else {
		// ToDS: Addr1 = BSSID (the AP receives and relays), Addr2 =
		// station, Addr3 = final destination.
		*d = dot11.Data{
			FC:    dot11.FrameControl{Type: dot11.TypeData, Subtype: dot11.SubtypeData, ToDS: true},
			Addr1: bssid, Addr2: n.Addr, Addr3: f.to,
			Seq:  dot11.SeqControl{Num: f.seq & 0xfff},
			Body: body,
		}
	}
	d.FC.Retry = f.retries > 0
	d.Duration = dot11.NAVForData(d.Addr1, phy.ControlRate)
	end := n.medium.transmit(n, d, r)
	if d.Addr1.IsGroup() {
		// Broadcast: no ACK expected; completion pops the frame.
		n.awaiting = awaitNone
		return
	}
	n.awaiting = awaitACK
	n.awaitTimeout = n.net.q.At(end+phy.SIFS+phy.AckDuration(phy.ControlRate)+2*phy.SlotTime, n.onAwaitFn)
}

// transmissionDone is called by the medium when this node's
// transmission leaves the air.
func (n *Node) transmissionDone(tx *transmission) {
	n.transmitting = false
	switch tx.parsed.(type) {
	case *dot11.Management, *dot11.Beacon:
		// Beacons/mgmt are unacknowledged broadcasts: pop and go on.
		n.popHead()
		n.startAccess(true)
	case *dot11.Data:
		if d := tx.parsed.(*dot11.Data); d.Addr1.IsGroup() {
			n.popHead()
			n.startAccess(true)
		}
		// Unicast data: wait for ACK/timeout.
	case *dot11.ACK, *dot11.CTS:
		// SIFS responses carry no queue state.
	case *dot11.RTS:
		// Waiting for CTS.
	}
}

// popHead removes the head-of-queue frame and resets retry state. The
// ring compacts once the dead prefix outweighs the live tail, so the
// backing array stays bounded by the queue limit.
func (n *Node) popHead() {
	if n.queueLen() > 0 {
		n.queue[n.qhead] = queuedFrame{} // drop beacon refs
		n.qhead++
		if n.qhead == len(n.queue) {
			n.queue = n.queue[:0]
			n.qhead = 0
		} else if n.qhead >= 32 && n.qhead*2 >= len(n.queue) {
			k := copy(n.queue, n.queue[n.qhead:])
			n.queue = n.queue[:k]
			n.qhead = 0
		}
	}
	n.cw = phy.CWMin
}

// onExchangeFailure handles a missing CTS or ACK: binary exponential
// backoff, retry, or drop at the retry limit.
func (n *Node) onExchangeFailure() {
	n.awaiting = awaitNone
	if n.queueLen() == 0 {
		return
	}
	f := n.head()
	f.retries++
	if f.kind == frameData {
		n.AdapterFor(f.to).OnFailure()
	}
	limit := n.net.cfg.ShortRetryLimit
	if f.useRTS {
		limit = n.net.cfg.LongRetryLimit
	}
	if f.retries > limit {
		n.Dropped++
		n.net.Stats.DataDropped++
		n.popHead()
		n.startAccess(true)
		return
	}
	// Double the contention window and redraw backoff.
	n.cw = n.cw*2 + 1
	if n.cw > n.net.cfg.CWMax {
		n.cw = n.net.cfg.CWMax
	}
	n.backoff = n.net.rng.Intn(n.cw + 1)
	n.resumeCountdown()
}

// scheduleResp queues the node's SIFS response (see respKind for why
// a single slot suffices).
func (n *Node) scheduleResp(kind respKind, ra dot11.Addr, dur uint16) {
	n.pendingResp = kind
	n.respRA = ra
	n.respDur = dur
	n.net.q.After(phy.SIFS, n.onRespFn)
}

// fireResp builds and transmits the pending SIFS response.
func (n *Node) fireResp() {
	kind := n.pendingResp
	n.pendingResp = respNone
	switch kind {
	case respCTS:
		n.scratchCTS = dot11.CTS{
			FC:       dot11.FrameControl{Type: dot11.TypeCtrl, Subtype: dot11.SubtypeCTS},
			Duration: n.respDur,
			RA:       n.respRA,
		}
		n.medium.transmit(n, &n.scratchCTS, phy.ControlRate)
	case respACK:
		n.scratchACK = dot11.ACK{
			FC: dot11.FrameControl{Type: dot11.TypeCtrl, Subtype: dot11.SubtypeACK},
			RA: n.respRA,
		}
		n.medium.transmit(n, &n.scratchACK, phy.ControlRate)
	}
}

// receive handles a successfully decoded frame at this node.
func (n *Node) receive(tx *transmission, snrDB float64) {
	now := n.net.q.Now()
	switch f := tx.parsed.(type) {
	case *dot11.RTS:
		if f.RA == n.Addr {
			if now < n.navUntil {
				return // NAV busy: stay silent, sender times out
			}
			n.net.Stats.CTSSent++
			n.scheduleResp(respCTS, f.TA, dot11.NAVForCTS(f.Duration))
		} else {
			n.updateNAV(now, f.Duration)
		}
	case *dot11.CTS:
		if f.RA == n.Addr && n.awaiting == awaitCTS {
			n.clearAwait()
			if n.queueLen() > 0 {
				n.net.q.After(phy.SIFS, n.onCTSDataFn)
			}
		} else if f.RA != n.Addr {
			n.updateNAV(now, f.Duration)
		}
	case *dot11.ACK:
		if f.RA == n.Addr && n.awaiting == awaitACK {
			n.clearAwait()
			n.Acked++
			n.net.Stats.DataAcked++
			if n.queueLen() > 0 {
				n.AdapterFor(n.head().to).OnAck()
			}
			n.popHead()
			n.startAccess(true)
		}
	case *dot11.Data:
		if f.Addr1 == n.Addr {
			n.net.Stats.ACKSent++
			n.scheduleResp(respACK, f.Addr2, 0)
		} else if !f.Addr1.IsGroup() {
			n.updateNAV(now, f.Duration)
		}
	case *dot11.Beacon, *dot11.Management:
		// Beacons keep stations' TSF in sync; nothing to do here.
	}
}

// clearAwait cancels the pending CTS/ACK timeout.
func (n *Node) clearAwait() {
	n.awaiting = awaitNone
	n.awaitTimeout.Cancel()
	n.awaitTimeout = eventq.Event{}
}

// updateNAV extends the virtual carrier sense from an overheard
// Duration field.
func (n *Node) updateNAV(now phy.Micros, duration uint16) {
	until := now + phy.Micros(duration)
	if until > n.navUntil {
		n.navUntil = until
		// A running countdown must respect the new NAV: freeze (banks
		// elapsed slots) and resume behind it. Both halves are O(1)
		// stamps; the scheduled event chases the new target by
		// deferral.
		if n.countdownArmed() && n.busyCount == 0 {
			n.pauseCountdown()
			n.resumeCountdown()
		}
	}
}

// moveToChannel detaches the node from its medium and attaches it to
// the new channel (AP channel switching; stations follow their AP).
func (n *Node) moveToChannel(c phy.Channel) {
	if n.Channel == c && n.medium != nil {
		return
	}
	if n.medium != nil {
		n.medium.detach(n)
	}
	n.Channel = c
	n.busyCount = 0
	n.net.mediumFor(c).attach(n)
}
