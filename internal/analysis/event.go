package analysis

import (
	"encoding/binary"

	"wlan80211/internal/capture"
	"wlan80211/internal/dot11"
	"wlan80211/internal/phy"
)

// Kind classifies a decoded frame for metric stages, so stages can
// dispatch without repeating the type switch on the parsed frame.
type Kind uint8

// Frame kinds. KindInvalid marks a record whose MAC frame failed to
// parse; such events carry no Parsed frame and no CBT.
const (
	KindInvalid Kind = iota
	KindData
	KindACK
	KindRTS
	KindCTS
	KindBeacon
	KindMgmt
)

// MissingKind labels an unrecorded-frame inference (Sec 4.4) attached
// to the event that triggered it.
type MissingKind uint8

// The three DCF-atomicity estimators.
const (
	MissingNone MissingKind = iota
	// MissingData: an ACK arrived with no matching captured DATA.
	MissingData
	// MissingRTS: a CTS arrived with no matching captured RTS.
	MissingRTS
	// MissingCTS: a DATA completed an RTS exchange whose CTS was
	// never captured.
	MissingCTS
)

// AddrID is a channel shard's dense identifier for one MAC address.
// The decoder interns each parsed frame's transmitter and receiver
// addresses in first-seen order, numbering from 1, so a stage can keep
// per-address state in slices instead of address-keyed maps. IDs are
// per shard — two shards may number one address differently — and an
// ID stays bound to its address for the whole run. The zero AddrID
// stands for "no address".
type AddrID uint32

// FrameEvent is one captured record, decoded and annotated by the
// shared single-pass decoder, as delivered to every metric stage.
// The same event value is reused between frames; stages must not
// retain the pointer past OnFrame.
type FrameEvent struct {
	// Rec is the raw capture record.
	Rec capture.Record
	// Parsed is the decoded MAC frame (zero when Kind is KindInvalid).
	// Parsed.Frame points into a frame the decoder reuses: it is
	// valid only during the OnFrame call. A stage that retains it
	// must copy the frame value.
	Parsed dot11.Parsed
	// Kind classifies the frame.
	Kind Kind
	// Second is the one-second interval the frame was charged to.
	Second int64
	// CBT is the channel busy-time charge of this frame (Table 2).
	CBT phy.Micros
	// RateIdx is the frame's rate bucket 0..3 (1/2/5.5/11 Mbps),
	// defaulting to 0 for invalid rate metadata.
	RateIdx int
	// GoodputBits is the goodput contribution of this event: the
	// frame's own bits for control/management/broadcast frames, plus
	// the acknowledged data frame's bits on a matched ACK.
	GoodputBits int64

	// CatIndex/CatOK give the 16-category index of a data frame.
	CatIndex int
	CatOK    bool

	// Acked marks an ACK that completed a captured DATA–ACK exchange.
	Acked bool
	// AckedRateIdx is the rate bucket of the acknowledged data frame.
	AckedRateIdx int
	// AckedRetry reports whether the acknowledged frame was a retry.
	AckedRetry bool
	// AckedDelay is the acceptance delay in seconds from the MSDU's
	// first attempt to this ACK (valid when AckedDelayOK).
	AckedDelay   float64
	AckedDelayOK bool
	// AckedCat is the acknowledged frame's category index.
	AckedCat int

	// Missing labels an inferred unrecorded frame; MissingAddr is the
	// address the estimate is attributed to.
	Missing     MissingKind
	MissingAddr dot11.Addr

	// TAID and RAID are the shard's IDs of the frame's transmitter and
	// receiver (dot11.TransmitterOf and ReceiverOf of Parsed.Frame).
	// TAID is 0 on ACK and CTS frames, which carry no transmitter
	// address; both are 0 on KindInvalid. MissingID is MissingAddr's
	// ID, 0 when Missing is MissingNone. The addresses themselves stay
	// on Parsed.
	TAID, RAID, MissingID AddrID

	ids *addrTable // the shard's table the IDs index
}

// addrTable interns one shard's addresses as dense AddrIDs.
type addrTable struct {
	byAddr map[uint64]AddrID // packed 48-bit address → ID
	addrs  []dot11.Addr      // ID → address; addrs[0] stands for "none"
}

// packAddr packs an address into the low 48 bits of a map key.
func packAddr(a dot11.Addr) uint64 {
	return uint64(binary.LittleEndian.Uint32(a[:4])) | uint64(binary.LittleEndian.Uint16(a[4:]))<<32
}

// group reports whether id names a group (multicast or broadcast)
// address.
func (t *addrTable) group(id AddrID) bool { return t.addrs[id].IsGroup() }

// pendingData tracks the most recent unicast data frame awaiting its
// ACK in the trace.
type pendingData struct {
	valid   bool
	ta      dot11.Addr
	taID    AddrID
	end     phy.Micros // transmission end time
	first   phy.Micros // the MSDU's first attempt
	rate    phy.Rate
	wireLen int
	retry   bool
}

// pendingRTS tracks the most recent RTS awaiting CTS/DATA.
type pendingRTS struct {
	valid      bool
	ta, ra     dot11.Addr
	taID, raID AddrID
	end        phy.Micros
	sawCTS     bool
}

// msduSlot holds a transmitter's newest MSDU: its sequence number and
// the time of its first attempt.
type msduSlot struct {
	first phy.Micros
	seq   uint16
	valid bool
}

// spill logs one overflow insertion: its key and the newest record
// time when it was made.
type spill struct {
	key uint64
	at  phy.Micros
}

// reuseWindow is how long a (transmitter, sequence number) pair names
// one MSDU: a data frame more than this after the MSDU's first attempt
// starts a new MSDU (the 12-bit sequence number has wrapped).
const reuseWindow = 2 * phy.MicrosPerSecond

// pruneLag is how far behind the shard's newest record an overflow
// entry's first attempt may fall before it is pruned: reuseWindow plus
// AckMatchWindow and the longest frame airtime (a 4096-byte frame at
// 1 Mbps, the streaming front ends' wire limit) as slack. For input in
// Feed's time order a pruned entry is one no later data frame could
// reuse, so pruning never changes a Result.
var pruneLag = reuseWindow + AckMatchWindow + phy.Airtime(4096, phy.Rate1Mbps)

// decoder is the per-channel single-pass front end: it advances the
// one-second clock, parses each record once, interns its addresses,
// tracks DCF exchange state (DATA–ACK, RTS–CTS–DATA), and emits one
// annotated FrameEvent per record to every metric stage.
type decoder struct {
	metrics []Metric

	started bool
	second  int64
	newest  phy.Micros // newest record time fed

	ids  addrTable
	pend pendingData
	prts pendingRTS

	// Acceptance-delay state: the first attempt of every MSDU not yet
	// acknowledged, keyed by (transmitter, sequence number). A
	// transmitter's newest MSDU lives in its slot (slots[ID]); an older
	// one superseded before its ACK spills to overflow, keyed by
	// overflowKey. No key is in both, so a retry or an ACK touches
	// only the slot. spills logs overflow insertions oldest first
	// (from spillHead) so expired entries are pruned in amortised O(1).
	slots     []msduSlot
	overflow  map[uint64]phy.Micros
	spills    []spill
	spillHead int

	totalFrames int64
	parseErrors int64

	parser dot11.Parser // owns the frames ev.Parsed points to
	ev     FrameEvent   // reused between records
}

func newDecoder(metrics []Metric) *decoder {
	return &decoder{
		metrics:  metrics,
		ids:      addrTable{byAddr: make(map[uint64]AddrID), addrs: make([]dot11.Addr, 1)},
		slots:    make([]msduSlot, 1),
		overflow: make(map[uint64]phy.Micros),
	}
}

// intern returns a's ID, assigning the next one on first sight.
func (d *decoder) intern(a dot11.Addr) AddrID {
	k := packAddr(a)
	if id, ok := d.ids.byAddr[k]; ok {
		return id
	}
	id := AddrID(len(d.ids.addrs))
	d.ids.byAddr[k] = id
	d.ids.addrs = append(d.ids.addrs, a)
	d.slots = append(d.slots, msduSlot{})
	return id
}

// overflowKey keys a spilled MSDU by transmitter ID and sequence
// number.
func overflowKey(id AddrID, seq uint16) uint64 { return uint64(id)<<12 | uint64(seq) }

// firstAttempt returns the first-attempt time of the MSDU (id, seq)
// sent at t, recording t when the MSDU is new or its recorded first
// attempt is more than reuseWindow old. The slot always ends up holding
// this MSDU.
func (d *decoder) firstAttempt(id AddrID, seq uint16, t phy.Micros) phy.Micros {
	s := &d.slots[id]
	if !s.valid || s.seq != seq {
		if s.valid {
			d.spill(overflowKey(id, s.seq), s.first)
		}
		key := overflowKey(id, seq)
		first, ok := d.overflow[key]
		if ok {
			delete(d.overflow, key)
		}
		*s = msduSlot{first: first, seq: seq, valid: ok}
	}
	if !s.valid || t-s.first > reuseWindow {
		s.first, s.valid = t, true
	}
	return s.first
}

// spill moves a superseded MSDU's first attempt to overflow. It first
// prunes what the log says may have expired: an entry whose first
// attempt is more than pruneLag behind the newest record. The log is in
// insertion order and its times never decrease, so each entry is
// looked at once. A record that arrives more than pruneLag-reuseWindow
// behind the shard's newest, against Feed's order precondition, may so
// find its MSDU's first attempt gone and be taken as a first attempt.
func (d *decoder) spill(key uint64, first phy.Micros) {
	cutoff := d.newest - pruneLag
	for d.spillHead < len(d.spills) && d.spills[d.spillHead].at < cutoff {
		k := d.spills[d.spillHead].key
		if f, ok := d.overflow[k]; ok && f < cutoff {
			delete(d.overflow, k)
		}
		d.spillHead++
	}
	if d.spillHead >= 64 && 2*d.spillHead >= len(d.spills) {
		d.spills = d.spills[:copy(d.spills, d.spills[d.spillHead:])]
		d.spillHead = 0
	}
	d.overflow[key] = first
	d.spills = append(d.spills, spill{key: key, at: d.newest})
}

// feed processes one record and reports whether its MAC frame parsed
// (false counts toward ParseErrors). Records must arrive in
// non-decreasing time order per channel; a record older than the open
// second is folded into the open second rather than reopening a
// closed one.
func (d *decoder) feed(rec *capture.Record) bool {
	sec := rec.Second()
	if !d.started {
		d.started = true
		d.second = sec
		d.newest = rec.Time
	}
	if rec.Time > d.newest {
		d.newest = rec.Time
	}
	// Close any completed seconds (emitting empty seconds too, so the
	// Figure 5 time series is gap-free).
	for d.second < sec {
		for _, m := range d.metrics {
			m.OnSecond(d.second)
		}
		d.second++
	}

	d.totalFrames++
	ev := &d.ev
	*ev = FrameEvent{Rec: *rec, Second: d.second, RateIdx: rateIdx(rec.Rate), ids: &d.ids}

	p, err := d.parser.Parse(rec.Frame)
	if err != nil {
		d.parseErrors++
		d.dispatch(ev) // stages still see the record (capture counts)
		return false
	}
	ev.Parsed = p

	switch f := p.Frame.(type) {
	case *dot11.Data:
		ev.Kind = KindData
		ev.CBT = CBTData(rec.OrigLen, rec.Rate)
		ev.TAID, ev.RAID = d.intern(f.Addr2), d.intern(f.Addr1)
		if ci, ok := CategoryOf(rec.OrigLen, rec.Rate).Index(); ok {
			ev.CatIndex, ev.CatOK = ci, true
		}
		// RTS–CTS–DATA atomicity: a DATA completing an RTS exchange
		// whose CTS was never captured implies an unrecorded CTS.
		if d.prts.valid && d.prts.ta == f.Addr2 {
			if !d.prts.sawCTS {
				ev.Missing = MissingCTS
				ev.MissingAddr, ev.MissingID = d.prts.ra, d.prts.raID
			}
			d.prts.valid = false
		}
		if !f.Addr1.IsGroup() {
			d.pend = pendingData{
				valid:   true,
				ta:      f.Addr2,
				taID:    ev.TAID,
				end:     rec.Time + phy.Airtime(rec.OrigLen, rec.Rate),
				first:   d.firstAttempt(ev.TAID, f.Seq.Num&0xfff, rec.Time),
				rate:    rec.Rate,
				wireLen: rec.OrigLen,
				retry:   f.FC.Retry,
			}
		} else {
			// Group-addressed data needs no ACK and counts as goodput.
			ev.GoodputBits = int64(rec.OrigLen) * 8
			d.pend.valid = false
		}

	case *dot11.ACK:
		ev.Kind = KindACK
		ev.CBT = CBTACK()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		// DATA–ACK atomicity (Sec 4.4): an ACK must follow its DATA;
		// the ACK's receiver is the DATA's transmitter.
		replies := d.pend.valid && d.pend.ta == f.RA
		if replies {
			ev.RAID = d.pend.taID
		} else {
			ev.RAID = d.intern(f.RA)
		}
		if replies && rec.Time-d.pend.end <= AckMatchWindow {
			ev.Acked = true
			ev.GoodputBits += int64(d.pend.wireLen) * 8
			ev.AckedRateIdx = rateIdx(d.pend.rate)
			ev.AckedRetry = d.pend.retry
			// Acceptance delay: first attempt → this ACK.
			delay := float64(rec.Time-d.pend.first) / 1e6
			if ci, okc := CategoryOf(d.pend.wireLen, d.pend.rate).Index(); okc && delay >= 0 {
				ev.AckedCat, ev.AckedDelay, ev.AckedDelayOK = ci, delay, true
			}
			// Every frame since the pending DATA cleared pend or left
			// the slots alone, so the slot still holds the
			// acknowledged MSDU: forget it.
			d.slots[d.pend.taID].valid = false
		} else {
			ev.Missing = MissingData
			ev.MissingAddr, ev.MissingID = f.RA, ev.RAID
		}
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.RTS:
		ev.Kind = KindRTS
		ev.CBT = CBTRTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		ev.TAID, ev.RAID = d.intern(f.TA), d.intern(f.RA)
		d.prts = pendingRTS{valid: true, ta: f.TA, ra: f.RA, taID: ev.TAID, raID: ev.RAID,
			end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate)}
		d.pend.valid = false

	case *dot11.CTS:
		ev.Kind = KindCTS
		ev.CBT = CBTCTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		replies := d.prts.valid && d.prts.ta == f.RA
		if replies {
			ev.RAID = d.prts.taID
		} else {
			ev.RAID = d.intern(f.RA)
		}
		// RTS–CTS atomicity: a CTS must follow a captured RTS whose
		// transmitter it addresses.
		if replies && rec.Time-d.prts.end <= AckMatchWindow {
			d.prts.sawCTS = true
		} else {
			ev.Missing = MissingRTS
			ev.MissingAddr, ev.MissingID = f.RA, ev.RAID
			// Synthesize the pending RTS so a following DATA is not
			// also charged a missing CTS.
			d.prts = pendingRTS{valid: true, ta: f.RA, taID: ev.RAID,
				end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate), sawCTS: true}
		}
		d.pend.valid = false

	case *dot11.Beacon:
		ev.Kind = KindBeacon
		ev.CBT = CBTBeacon()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		ev.TAID, ev.RAID = d.intern(f.SA), d.intern(f.DA)
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.Management:
		// Other management frames are charged like data frames.
		ev.Kind = KindMgmt
		ev.CBT = CBTData(rec.OrigLen, rec.Rate)
		ev.GoodputBits = int64(rec.OrigLen) * 8
		ev.TAID, ev.RAID = d.intern(f.SA), d.intern(f.DA)
		d.pend.valid = false
		d.prts.valid = false
	}

	d.dispatch(ev)
	return true
}

func (d *decoder) dispatch(ev *FrameEvent) {
	for _, m := range d.metrics {
		m.OnFrame(ev)
	}
}

// close flushes the final (partial) second.
func (d *decoder) close() {
	if !d.started {
		return
	}
	for _, m := range d.metrics {
		m.OnSecond(d.second)
	}
}

// rateIdx maps a rate to 0..3, defaulting to 0 (1 Mbps) for invalid
// metadata.
func rateIdx(r phy.Rate) int {
	if i, ok := r.Index(); ok {
		return i
	}
	return 0
}
