package analysis

import (
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
}

// pendingData tracks the most recent unicast data frame awaiting its
// ACK in the trace.
type pendingData struct {
	valid   bool
	ta      dot11.Addr
	end     phy.Micros // transmission end time
	rate    phy.Rate
	wireLen int
	retry   bool
	seqKey  uint64 // addrSeqKey(ta, seq) of the MSDU
}

// pendingRTS tracks the most recent RTS awaiting CTS/DATA.
type pendingRTS struct {
	valid  bool
	ta, ra dot11.Addr
	end    phy.Micros
	sawCTS bool
}

// decoder is the per-channel single-pass front end: it advances the
// one-second clock, parses each record once, tracks DCF exchange state
// (DATA–ACK, RTS–CTS–DATA), and emits one annotated FrameEvent per
// record to every metric stage.
type decoder struct {
	metrics []Metric

	started bool
	second  int64

	pend      pendingData
	prts      pendingRTS
	firstSeen map[uint64]phy.Micros // (ta,seq) → first attempt time

	totalFrames int64
	parseErrors int64

	parser dot11.Parser // owns the frames ev.Parsed points to
	ev     FrameEvent   // reused between records
}

func newDecoder(metrics []Metric) *decoder {
	return &decoder{metrics: metrics, firstSeen: make(map[uint64]phy.Micros)}
}

// feed processes one record and reports whether its MAC frame parsed
// (false counts toward ParseErrors). Records must arrive in
// non-decreasing time order per channel; a record older than the open
// second is folded into the open second rather than reopening a
// closed one.
func (d *decoder) feed(rec capture.Record) bool {
	sec := rec.Second()
	if !d.started {
		d.started = true
		d.second = sec
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
	*ev = FrameEvent{Rec: rec, Second: d.second, RateIdx: rateIdx(rec.Rate)}

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
		if ci, ok := CategoryOf(rec.OrigLen, rec.Rate).Index(); ok {
			ev.CatIndex, ev.CatOK = ci, true
		}
		// RTS–CTS–DATA atomicity: a DATA completing an RTS exchange
		// whose CTS was never captured implies an unrecorded CTS.
		if d.prts.valid && d.prts.ta == f.Addr2 {
			if !d.prts.sawCTS {
				ev.Missing = MissingCTS
				ev.MissingAddr = d.prts.ra
			}
			d.prts.valid = false
		}
		if !f.Addr1.IsGroup() {
			end := rec.Time + phy.Airtime(rec.OrigLen, rec.Rate)
			key := addrSeqKey(f.Addr2, f.Seq.Num)
			first, ok := d.firstSeen[key]
			if !ok || rec.Time-first > 2*phy.MicrosPerSecond {
				first = rec.Time
				d.firstSeen[key] = first
			}
			d.pend = pendingData{
				valid:   true,
				ta:      f.Addr2,
				end:     end,
				rate:    rec.Rate,
				wireLen: rec.OrigLen,
				retry:   f.FC.Retry,
				seqKey:  key,
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
		if d.pend.valid && d.pend.ta == f.RA && rec.Time-d.pend.end <= AckMatchWindow {
			ev.Acked = true
			ev.GoodputBits += int64(d.pend.wireLen) * 8
			ev.AckedRateIdx = rateIdx(d.pend.rate)
			ev.AckedRetry = d.pend.retry
			// Acceptance delay: first attempt → this ACK.
			if first, ok := d.firstSeen[d.pend.seqKey]; ok {
				delay := float64(rec.Time-first) / 1e6
				if ci, okc := CategoryOf(d.pend.wireLen, d.pend.rate).Index(); okc && delay >= 0 {
					ev.AckedCat, ev.AckedDelay, ev.AckedDelayOK = ci, delay, true
				}
				delete(d.firstSeen, d.pend.seqKey)
			}
		} else {
			ev.Missing = MissingData
			ev.MissingAddr = f.RA
		}
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.RTS:
		ev.Kind = KindRTS
		ev.CBT = CBTRTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		d.prts = pendingRTS{valid: true, ta: f.TA, ra: f.RA, end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate)}
		d.pend.valid = false

	case *dot11.CTS:
		ev.Kind = KindCTS
		ev.CBT = CBTCTS()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		// RTS–CTS atomicity: a CTS must follow a captured RTS whose
		// transmitter it addresses.
		if d.prts.valid && d.prts.ta == f.RA && rec.Time-d.prts.end <= AckMatchWindow {
			d.prts.sawCTS = true
		} else {
			ev.Missing = MissingRTS
			ev.MissingAddr = f.RA
			// Synthesize the pending RTS so a following DATA is not
			// also charged a missing CTS.
			d.prts = pendingRTS{valid: true, ta: f.RA, end: rec.Time + phy.Airtime(rec.OrigLen, rec.Rate), sawCTS: true}
		}
		d.pend.valid = false

	case *dot11.Beacon:
		ev.Kind = KindBeacon
		ev.CBT = CBTBeacon()
		ev.GoodputBits = int64(rec.OrigLen) * 8
		d.pend.valid = false
		d.prts.valid = false

	case *dot11.Management:
		// Other management frames are charged like data frames.
		ev.Kind = KindMgmt
		ev.CBT = CBTData(rec.OrigLen, rec.Rate)
		ev.GoodputBits = int64(rec.OrigLen) * 8
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

// addrSeqKey packs a transmitter address and sequence number.
func addrSeqKey(a dot11.Addr, seq uint16) uint64 {
	var v uint64
	for _, b := range a {
		v = v<<8 | uint64(b)
	}
	return v<<12 | uint64(seq&0xfff)
}
